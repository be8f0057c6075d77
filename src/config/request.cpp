#include "pgmcml/config/request.hpp"

namespace pgmcml::config {

std::string to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kExpired: return "expired";
    case ResponseStatus::kError: return "error";
  }
  return "error";
}

Request request_from_json(const obs::json::Value& doc,
                          const std::string& doc_label,
                          const std::string& base_dir) {
  const Reader r = open_document(doc, "request", doc_label);
  r.reject_unknown_keys(
      {"pgmcml_schema", "kind", "id", "op", "deadline_ms", "experiment"});
  Request req;
  req.id = r.require_string("id");
  if (req.id.empty()) r.child("id").fail("must not be empty");
  req.op = static_cast<RequestOp>(
      r.require_enum("op", {"run", "statsz", "ping"}));
  // A day is far beyond any plan this daemon runs; larger values are typos.
  req.deadline_ms = static_cast<std::uint64_t>(
      r.int_or("deadline_ms", 0, 0, 86'400'000));
  if (req.op == RequestOp::kRun) {
    const Reader member = r.child("experiment");
    req.experiment =
        experiment_from_json(member.value(), member.path(), base_dir);
  } else if (r.has("experiment")) {
    r.child("experiment")
        .fail("only op \"run\" carries an experiment document");
  }
  return req;
}

obs::json::Value ResponseStats::to_json() const {
  obs::json::Object o;
  o.emplace_back("latency_s", latency_s);
  o.emplace_back("queue_depth", queue_depth);
  o.emplace_back("cache_hits", cache_hits);
  o.emplace_back("cache_misses", cache_misses);
  o.emplace_back("cache_hit_rate", cache_hit_rate());
  o.emplace_back("newton_iterations", newton_iterations);
  o.emplace_back("exact", exact);
  return obs::json::Value(std::move(o));
}

namespace {

obs::json::Object response_envelope(const std::string& id,
                                    ResponseStatus status) {
  obs::json::Object o;
  o.emplace_back("pgmcml_schema", static_cast<std::int64_t>(kSchemaVersion));
  o.emplace_back("kind", "response");
  o.emplace_back("id", id);
  o.emplace_back("status", to_string(status));
  return o;
}

}  // namespace

obs::json::Value make_run_response(const std::string& id,
                                   const std::string& digest_hex,
                                   obs::json::Value report,
                                   const ResponseStats& stats) {
  obs::json::Object o = response_envelope(id, ResponseStatus::kOk);
  o.emplace_back("digest", digest_hex);
  o.emplace_back("report", std::move(report));
  o.emplace_back("stats", stats.to_json());
  return obs::json::Value(std::move(o));
}

obs::json::Value make_ok_response(const std::string& id,
                                  obs::json::Value report) {
  obs::json::Object o = response_envelope(id, ResponseStatus::kOk);
  o.emplace_back("report", std::move(report));
  return obs::json::Value(std::move(o));
}

obs::json::Value make_error_response(const std::string& id,
                                     ResponseStatus status,
                                     const std::string& error,
                                     std::uint64_t retry_after_ms) {
  obs::json::Object o = response_envelope(id, status);
  o.emplace_back("error", error);
  if (status == ResponseStatus::kRejected) {
    o.emplace_back("retry_after_ms", retry_after_ms);
  }
  return obs::json::Value(std::move(o));
}

Response response_from_json(const obs::json::Value& doc) {
  if (!doc.is_object()) {
    throw std::runtime_error("response: not a JSON object");
  }
  if (doc.string_or("kind", "") != "response") {
    throw std::runtime_error("response: kind is not \"response\"");
  }
  Response r;
  r.id = doc.string_or("id", "");
  const std::string status = doc.string_or("status", "");
  if (status == "ok") {
    r.status = ResponseStatus::kOk;
  } else if (status == "rejected") {
    r.status = ResponseStatus::kRejected;
  } else if (status == "expired") {
    r.status = ResponseStatus::kExpired;
  } else if (status == "error") {
    r.status = ResponseStatus::kError;
  } else {
    throw std::runtime_error("response: unknown status '" + status + "'");
  }
  r.error = doc.string_or("error", "");
  r.retry_after_ms =
      static_cast<std::uint64_t>(doc.number_or("retry_after_ms", 0.0));
  r.digest = doc.string_or("digest", "");
  if (const obs::json::Value* report = doc.find("report")) {
    r.report = *report;
  }
  if (const obs::json::Value* stats = doc.find("stats")) {
    r.stats.latency_s = stats->number_or("latency_s", 0.0);
    r.stats.queue_depth =
        static_cast<std::uint64_t>(stats->number_or("queue_depth", 0.0));
    r.stats.cache_hits =
        static_cast<std::uint64_t>(stats->number_or("cache_hits", 0.0));
    r.stats.cache_misses =
        static_cast<std::uint64_t>(stats->number_or("cache_misses", 0.0));
    r.stats.newton_iterations = static_cast<std::uint64_t>(
        stats->number_or("newton_iterations", 0.0));
    if (const obs::json::Value* exact = stats->find("exact")) {
      r.stats.exact = exact->is_bool() ? exact->as_bool() : true;
    }
  }
  return r;
}

}  // namespace pgmcml::config
