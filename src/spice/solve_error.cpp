#include "pgmcml/spice/solve_error.hpp"

#include <sstream>

namespace pgmcml::spice {

const char* to_string(SolveErrorKind kind) {
  switch (kind) {
    case SolveErrorKind::kNone: return "none";
    case SolveErrorKind::kSingularMatrix: return "singular-matrix";
    case SolveErrorKind::kNonFiniteValues: return "non-finite-values";
    case SolveErrorKind::kNewtonMaxIter: return "newton-max-iter";
    case SolveErrorKind::kTimestepUnderflow: return "timestep-underflow";
    case SolveErrorKind::kDcNoConvergence: return "dc-no-convergence";
    case SolveErrorKind::kInvalidInput: return "invalid-input";
  }
  return "unknown";
}

std::string SolveError::describe() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << to_string(kind);
  if (!message.empty()) os << ": " << message;
  if (time > 0.0) os << " (t=" << time << ")";
  return os.str();
}

void EngineStats::merge(const EngineStats& other) {
  newton_iterations += other.newton_iterations;
  newton_failures += other.newton_failures;
  lu_factorizations += other.lu_factorizations;
  lu_factorization_failures += other.lu_factorization_failures;
  lu_solves += other.lu_solves;
  symbolic_analyses += other.symbolic_analyses;
  numeric_refactors += other.numeric_refactors;
  steps_accepted += other.steps_accepted;
  steps_rejected += other.steps_rejected;
  gmin_step_stages += other.gmin_step_stages;
  source_step_stages += other.source_step_stages;
  dt_floor_breaches += other.dt_floor_breaches;
  gmin_boosts += other.gmin_boosts;
  be_fallback_steps += other.be_fallback_steps;
  recovered_steps += other.recovered_steps;
  faults_injected += other.faults_injected;
}

void FlowDiagnostics::record_retry(const std::string& stage,
                                   const std::string& error) {
  ++retries;
  incidents.push_back({stage, error, false});
}

void FlowDiagnostics::record_recovery(const std::string& stage) {
  ++recovered;
  // Upgrade the matching retry incident (most recent for this stage).
  for (auto it = incidents.rbegin(); it != incidents.rend(); ++it) {
    if (it->stage == stage) {
      it->recovered = true;
      return;
    }
  }
  incidents.push_back({stage, "", true});
}

void FlowDiagnostics::record_skip(const std::string& stage,
                                  const std::string& error) {
  ++skipped;
  incidents.push_back({stage, error, false});
}

void FlowDiagnostics::merge(const FlowDiagnostics& other) {
  attempts += other.attempts;
  retries += other.retries;
  recovered += other.recovered;
  skipped += other.skipped;
  incidents.insert(incidents.end(), other.incidents.begin(),
                   other.incidents.end());
  engine.merge(other.engine);
}

namespace {
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
}
}  // namespace

namespace {

std::uint64_t u64_field(const obs::json::Value& v, std::string_view key) {
  return static_cast<std::uint64_t>(v.number_or(key, 0.0));
}

}  // namespace

obs::json::Value EngineStats::to_json_value() const {
  obs::json::Object o;
  o.emplace_back("newton_iterations",
                 static_cast<std::uint64_t>(newton_iterations));
  o.emplace_back("newton_failures", static_cast<std::uint64_t>(newton_failures));
  o.emplace_back("lu_factorizations",
                 static_cast<std::uint64_t>(lu_factorizations));
  o.emplace_back("lu_factorization_failures",
                 static_cast<std::uint64_t>(lu_factorization_failures));
  o.emplace_back("lu_solves", static_cast<std::uint64_t>(lu_solves));
  o.emplace_back("symbolic_analyses",
                 static_cast<std::uint64_t>(symbolic_analyses));
  o.emplace_back("numeric_refactors",
                 static_cast<std::uint64_t>(numeric_refactors));
  o.emplace_back("steps_accepted", static_cast<std::uint64_t>(steps_accepted));
  o.emplace_back("steps_rejected", static_cast<std::uint64_t>(steps_rejected));
  o.emplace_back("gmin_step_stages",
                 static_cast<std::uint64_t>(gmin_step_stages));
  o.emplace_back("source_step_stages",
                 static_cast<std::uint64_t>(source_step_stages));
  o.emplace_back("dt_floor_breaches",
                 static_cast<std::uint64_t>(dt_floor_breaches));
  o.emplace_back("gmin_boosts", static_cast<std::uint64_t>(gmin_boosts));
  o.emplace_back("be_fallback_steps",
                 static_cast<std::uint64_t>(be_fallback_steps));
  o.emplace_back("recovered_steps",
                 static_cast<std::uint64_t>(recovered_steps));
  o.emplace_back("faults_injected",
                 static_cast<std::uint64_t>(faults_injected));
  return obs::json::Value(std::move(o));
}

EngineStats EngineStats::from_json_value(const obs::json::Value& v) {
  EngineStats s;
  s.newton_iterations = u64_field(v, "newton_iterations");
  s.newton_failures = u64_field(v, "newton_failures");
  s.lu_factorizations = u64_field(v, "lu_factorizations");
  s.lu_factorization_failures = u64_field(v, "lu_factorization_failures");
  s.lu_solves = u64_field(v, "lu_solves");
  s.symbolic_analyses = u64_field(v, "symbolic_analyses");
  s.numeric_refactors = u64_field(v, "numeric_refactors");
  s.steps_accepted = u64_field(v, "steps_accepted");
  s.steps_rejected = u64_field(v, "steps_rejected");
  s.gmin_step_stages = u64_field(v, "gmin_step_stages");
  s.source_step_stages = u64_field(v, "source_step_stages");
  s.dt_floor_breaches = u64_field(v, "dt_floor_breaches");
  s.gmin_boosts = u64_field(v, "gmin_boosts");
  s.be_fallback_steps = u64_field(v, "be_fallback_steps");
  s.recovered_steps = u64_field(v, "recovered_steps");
  s.faults_injected = u64_field(v, "faults_injected");
  return s;
}

obs::json::Value FlowDiagnostics::to_json_value() const {
  obs::json::Object o = {
      {"attempts", static_cast<std::uint64_t>(attempts)},
      {"retries", static_cast<std::uint64_t>(retries)},
      {"recovered", static_cast<std::uint64_t>(recovered)},
      {"skipped", static_cast<std::uint64_t>(skipped)}};
  obs::json::Array inc;
  for (const FlowIncident& i : incidents) {
    obs::json::Object io;
    io.emplace_back("stage", i.stage);
    io.emplace_back("error", i.error);
    io.emplace_back("recovered", i.recovered);
    inc.emplace_back(std::move(io));
  }
  o.emplace_back("incidents", obs::json::Value(std::move(inc)));
  o.emplace_back("engine", engine.to_json_value());
  return obs::json::Value(std::move(o));
}

FlowDiagnostics FlowDiagnostics::from_json_value(const obs::json::Value& v) {
  FlowDiagnostics d;
  d.attempts = u64_field(v, "attempts");
  d.retries = u64_field(v, "retries");
  d.recovered = u64_field(v, "recovered");
  d.skipped = u64_field(v, "skipped");
  if (const obs::json::Value* inc = v.find("incidents")) {
    for (const obs::json::Value& i : inc->as_array()) {
      FlowIncident out;
      out.stage = i.string_or("stage", "");
      out.error = i.string_or("error", "");
      if (const obs::json::Value* r = i.find("recovered")) {
        out.recovered = r->as_bool();
      }
      d.incidents.push_back(std::move(out));
    }
  }
  if (const obs::json::Value* eng = v.find("engine")) {
    d.engine = EngineStats::from_json_value(*eng);
  }
  return d;
}

std::string FlowDiagnostics::to_json() const {
  std::string out = "{";
  out += "\"attempts\": " + std::to_string(attempts);
  out += ", \"retries\": " + std::to_string(retries);
  out += ", \"recovered\": " + std::to_string(recovered);
  out += ", \"skipped\": " + std::to_string(skipped);
  out += ", \"newton_iterations\": " + std::to_string(engine.newton_iterations);
  out += ", \"newton_failures\": " + std::to_string(engine.newton_failures);
  out += ", \"steps_rejected\": " + std::to_string(engine.steps_rejected);
  out += ", \"dt_floor_breaches\": " + std::to_string(engine.dt_floor_breaches);
  out += ", \"gmin_boosts\": " + std::to_string(engine.gmin_boosts);
  out += ", \"be_fallback_steps\": " + std::to_string(engine.be_fallback_steps);
  out += ", \"recovered_steps\": " + std::to_string(engine.recovered_steps);
  out += ", \"faults_injected\": " + std::to_string(engine.faults_injected);
  out += ", \"incidents\": [";
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"stage\": ";
    append_json_string(out, incidents[i].stage);
    out += ", \"error\": ";
    append_json_string(out, incidents[i].error);
    out += ", \"recovered\": ";
    out += incidents[i].recovered ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace pgmcml::spice
