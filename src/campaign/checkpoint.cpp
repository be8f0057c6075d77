#include "pgmcml/campaign/checkpoint.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/obs/json.hpp"
#include "pgmcml/sca/snapshot.hpp"

namespace pgmcml::campaign {

namespace {

constexpr char kTag[5] = "PGC2";

/// Checkpoint body (everything the checksum covers), appended to `w`.
void serialize_body(sca::SnapshotWriter& w, const WorkerCheckpoint& state,
                    std::uint64_t config_digest) {
  w.tag(kTag);
  w.u64(config_digest);
  w.u64(state.shard);
  w.u32(state.phase);
  w.u64(state.range_lo);
  w.u64(state.range_hi);
  w.u64(state.next_index);
  w.u64(state.checkpoints_written);
  // Diagnostics ride as their exact JSON round-trip form: one codec for the
  // result cache, the bench manifests and the checkpoint.
  w.bytes(state.diagnostics.to_json_value().dump());
  state.attacks.save(w);
}

/// Smallest boundary trace count from which the rank stays 0 to the end of
/// column `col` of the boundary ranks; 0 when the final rank is nonzero.
std::uint64_t mtd_from_boundaries(
    const std::vector<ShardAccumulators::Ranks>& boundaries,
    std::size_t col) {
  std::uint64_t mtd = 0;
  if (boundaries.empty() || boundaries.back()[col].second != 0) return 0;
  for (auto it = boundaries.rbegin(); it != boundaries.rend(); ++it) {
    if ((*it)[col].second != 0) break;
    mtd = (*it)[col].first;
  }
  return mtd;
}

/// Loads the next snapshot stream into `slot`, which was built with the
/// layout the loader expects; a stream of any other layout throws.
template <typename Acc>
void load_into(sca::SnapshotReader& r, Acc& slot) {
  Acc got = Acc::load(r);
  bool same = got.samples_per_trace() == slot.samples_per_trace();
  if constexpr (requires { slot.model(); }) {
    same = same && got.model() == slot.model();
  }
  if constexpr (requires { slot.window(); }) {
    same = same && got.window() == slot.window();
  }
  if (!same) {
    throw std::runtime_error("checkpoint: accumulator layout mismatch");
  }
  slot = std::move(got);
}

}  // namespace

ShardAccumulators::ShardAccumulators(sca::LeakageModel model,
                                     std::size_t samples, bool static_power,
                                     bool with_mlpa)
    : cpa(model, samples), dpa(samples), tvla(samples) {
  if (static_power) {
    static_awake.emplace(model, samples, sca::StaticWindow::kAwake);
    static_asleep.emplace(model, samples, sca::StaticWindow::kAsleep);
  }
  if (with_mlpa) mlpa.emplace(samples);
}

void ShardAccumulators::fold(std::uint32_t phase,
                             const sca::TraceBatch& batch, bool with_tvla) {
  switch (phase) {
    case kPhaseRandom:
      cpa.add_batch(batch);
      dpa.add_batch(batch);
      if (mlpa) mlpa->add_batch(batch);
      if (with_tvla) {
        for (const auto& trace : batch.traces) tvla.add(false, trace);
      }
      break;
    case kPhaseFixed:
      for (const auto& trace : batch.traces) tvla.add(true, trace);
      break;
    case kPhaseStatic:
      static_awake->add_batch(batch);
      static_asleep->add_batch(batch);
      break;
  }
}

void ShardAccumulators::merge(const ShardAccumulators& other) {
  if (static_awake.has_value() != other.static_awake.has_value() ||
      mlpa.has_value() != other.mlpa.has_value()) {
    throw std::invalid_argument("ShardAccumulators::merge: layout mismatch");
  }
  cpa.merge(other.cpa);
  dpa.merge(other.dpa);
  tvla.merge(other.tvla);
  if (static_awake) {
    static_awake->merge(*other.static_awake);
    static_asleep->merge(*other.static_asleep);
  }
  if (mlpa) mlpa->merge(*other.mlpa);
}

ShardAccumulators::Ranks ShardAccumulators::ranks(std::uint8_t key) const {
  const auto rank = [key](const auto& acc) {
    return std::pair<std::uint64_t, int>(acc.num_traces(),
                                         acc.snapshot().key_rank(key));
  };
  Ranks out;
  out.fill({0, -1});
  out[0] = rank(cpa);
  if (static_awake) {
    out[1] = rank(*static_awake);
    out[2] = rank(*static_asleep);
  }
  if (mlpa) out[3] = rank(*mlpa);
  return out;
}

void ShardAccumulators::report(const CampaignOptions& o,
                               const std::vector<Ranks>& boundaries,
                               CampaignResult& result) const {
  result.traces_accumulated = cpa.num_traces();
  result.cpa = cpa.snapshot();
  result.dpa = dpa.snapshot();
  if (o.tvla) result.tvla = tvla.snapshot();
  result.key_rank = result.cpa.key_rank(o.key);
  result.margin = result.cpa.margin(o.key);
  result.mtd = mtd_from_boundaries(boundaries, 0);
  if (static_awake) {
    result.static_awake = static_awake->snapshot();
    result.static_asleep = static_asleep->snapshot();
    result.static_traces_accumulated = static_awake->num_traces();
    result.static_awake_rank = result.static_awake.key_rank(o.key);
    result.static_asleep_rank = result.static_asleep.key_rank(o.key);
    result.static_awake_margin = result.static_awake.margin(o.key);
    result.static_asleep_margin = result.static_asleep.margin(o.key);
    result.static_awake_mtd = mtd_from_boundaries(boundaries, 1);
    result.static_asleep_mtd = mtd_from_boundaries(boundaries, 2);
  }
  if (mlpa) {
    result.mlpa = mlpa->snapshot();
    result.mlpa_rank = result.mlpa.key_rank(o.key);
    result.mlpa_margin = result.mlpa.margin(o.key);
    result.mlpa_mtd = mtd_from_boundaries(boundaries, 3);
  }
}

void ShardAccumulators::save(sca::SnapshotWriter& w) const {
  cpa.save(w);
  dpa.save(w);
  tvla.save(w);
  if (static_awake) {
    static_awake->save(w);
    static_asleep->save(w);
  }
  if (mlpa) mlpa->save(w);
}

void ShardAccumulators::load(sca::SnapshotReader& r) {
  load_into(r, cpa);
  load_into(r, dpa);
  load_into(r, tvla);
  if (static_awake) {
    load_into(r, *static_awake);
    load_into(r, *static_asleep);
  }
  if (mlpa) load_into(r, *mlpa);
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool save_checkpoint(const std::string& path, const WorkerCheckpoint& state,
                     std::uint64_t config_digest,
                     const std::function<void()>* pre_publish) {
  sca::SnapshotWriter w;
  serialize_body(w, state, config_digest);
  const std::uint64_t checksum = fnv1a64(w.buffer());
  w.u64(checksum);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string& body = w.buffer();
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = ok && std::fflush(f) == 0;
  // rename() makes the publish atomic; only fsync() before it makes the
  // content durable.  Without it a power loss can publish a name pointing
  // at zeroes -- exactly the torn state load_checkpoint must never see.
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (pre_publish != nullptr && *pre_publish) (*pre_publish)();
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<WorkerCheckpoint> load_checkpoint(const std::string& path,
                                                sca::LeakageModel model,
                                                std::size_t samples,
                                                std::uint64_t config_digest,
                                                bool static_power,
                                                bool mlpa) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string raw;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    raw.append(buf, got);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  // Every crash artifact is a miss: too short to hold even the framing, a
  // checksum that does not cover the bytes, or options that changed.
  if (!read_ok || raw.size() < sizeof(std::uint64_t) + 4) return std::nullopt;
  const std::string_view body(raw.data(), raw.size() - sizeof(std::uint64_t));
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, raw.data() + body.size(),
              sizeof(stored_checksum));
  if (fnv1a64(body) != stored_checksum) return std::nullopt;

  try {
    sca::SnapshotReader r(body);
    r.expect_tag(kTag);
    if (r.u64() != config_digest) return std::nullopt;
    WorkerCheckpoint state(model, samples, static_power, mlpa);
    state.shard = r.u64();
    state.phase = r.u32();
    state.range_lo = r.u64();
    state.range_hi = r.u64();
    state.next_index = r.u64();
    state.checkpoints_written = r.u64();
    state.diagnostics = spice::FlowDiagnostics::from_json_value(
        obs::json::Value::parse(r.bytes()));
    // A set of a different layout throws (caught below); one that ends
    // early throws too, and one with extra members leaves bytes unread.
    state.attacks.load(r);
    if (!r.exhausted()) return std::nullopt;
    if (state.phase > kPhaseDone || state.range_lo > state.range_hi ||
        state.next_index < state.range_lo ||
        state.next_index > state.range_hi) {
      return std::nullopt;
    }
    return state;
  } catch (const std::exception&) {
    return std::nullopt;  // truncated / malformed snapshot stream
  }
}

}  // namespace pgmcml::campaign
