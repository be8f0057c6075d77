// Durable worker checkpoints for the distributed campaign orchestrator.
//
// A campaign worker owns one shard -- a fixed global-trace-index range --
// and periodically snapshots its full analysis state to the spool
// directory: the shard's attack accumulators (raw IEEE-754 bytes, so a
// resume continues the identical arithmetic sequence), the aggregated
// FlowDiagnostics, and the resume cursor (phase + next global index).
//
// Durability contract: save_checkpoint writes the snapshot to a temporary
// file, fsyncs it, and only then renames it over the live checkpoint.  A
// crash at ANY instant leaves either the previous complete checkpoint or
// the new complete checkpoint -- never a torn one.  load_checkpoint treats
// every partial-crash artifact (missing file, zero-length or short file,
// bad checksum, a checkpoint written under different campaign options) as a
// clean "no checkpoint" miss, so recovery never needs a human to triage the
// spool directory.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/spice/solve_error.hpp"

namespace pgmcml::campaign {

/// Worker phases, in execution order.  TVLA needs a second acquisition pass
/// over the shard's index range (the fixed class); the static-power attack
/// needs a third, quiescent-hold pass.  Inactive phases are skipped, so the
/// phase VALUE is stable in checkpoints regardless of which toggles are on.
enum : std::uint32_t {
  kPhaseRandom = 0,  ///< random plaintexts: CPA + DPA + MLPA + TVLA random
  kPhaseFixed = 1,   ///< fixed plaintext (seed+1 stream): TVLA fixed class
  kPhaseStatic = 2,  ///< quiescent holds (seed+2 stream): static-power attack
  kPhaseDone = 3,    ///< every active pass complete; the shard is finished
};

struct CampaignOptions;
struct CampaignResult;

/// The attack accumulators of one shard: the unit the campaign folds,
/// checkpoints and merges.  CPA, DPA and TVLA are always present; the
/// static-power pair and MLPA exist only when the campaign toggles them on.
/// Every modality is wired into the campaign here and nowhere else, so a new
/// attack is its accumulator plus its entry in these members.
struct ShardAccumulators {
  sca::CpaAccumulator cpa;
  sca::DpaAccumulator dpa;
  sca::TvlaAccumulator tvla;
  std::optional<sca::StaticPowerAccumulator> static_awake;
  std::optional<sca::StaticPowerAccumulator> static_asleep;
  std::optional<sca::MlpaAccumulator> mlpa;

  ShardAccumulators(sca::LeakageModel model, std::size_t samples,
                    bool static_power = false, bool with_mlpa = false);

  /// Folds one batch of `phase`'s acquisition into the attacks it feeds:
  /// random -> CPA, DPA, MLPA and (when `tvla`) TVLA's random class;
  /// fixed -> TVLA's fixed class; static -> both static-power windows.
  void fold(std::uint32_t phase, const sca::TraceBatch& batch, bool tvla);
  /// Chan-merges a disjoint shard's set of the same layout.
  void merge(const ShardAccumulators& other);

  /// (traces folded, true-key rank) of each MTD-scored attack -- CPA, static
  /// awake, static asleep, MLPA -- with {0, -1} for an absent one.
  using Ranks = std::array<std::pair<std::uint64_t, int>, 4>;
  Ranks ranks(std::uint8_t key) const;
  /// Writes the verdicts into `result`: snapshots plus rank and margin
  /// against options.key, and each MTD from `boundaries` (the ranks() after
  /// every merged shard; empty when MTD is off).
  void report(const CampaignOptions& options,
              const std::vector<Ranks>& boundaries,
              CampaignResult& result) const;

  /// The present accumulators' snapshot streams, in member order.  Each
  /// stream carries its own tag, so no presence flags are needed.
  void save(sca::SnapshotWriter& w) const;
  /// Reads what save() wrote for a set of this layout.  Throws
  /// std::runtime_error on a malformed stream or a different layout (model,
  /// samples, window, which members are present).
  void load(sca::SnapshotReader& r);
};

/// Complete resumable state of one shard worker.  Which optional attack
/// accumulators exist is part of the checkpoint layout (and the options part
/// of the digest), so a spool written under different toggles reads as a
/// miss.
struct WorkerCheckpoint {
  std::uint64_t shard = 0;
  std::uint32_t phase = kPhaseRandom;
  std::uint64_t range_lo = 0;  ///< global index range [range_lo, range_hi)
  std::uint64_t range_hi = 0;
  /// First global index of `phase` NOT yet attempted (skipped traces count
  /// as attempted -- this is the acquisition cursor, not the fold count).
  std::uint64_t next_index = 0;
  std::uint64_t checkpoints_written = 0;
  ShardAccumulators attacks;
  spice::FlowDiagnostics diagnostics;

  WorkerCheckpoint(sca::LeakageModel model, std::size_t samples,
                   bool static_power = false, bool with_mlpa = false)
      : attacks(model, samples, static_power, with_mlpa) {}
};

/// FNV-1a 64-bit -- the checkpoint checksum and the campaign config digest.
std::uint64_t fnv1a64(std::string_view data);

/// Serializes `state` to `path` atomically and durably (tmp + fsync +
/// rename).  `config_digest` stamps the campaign options the state was
/// produced under, so a stale spool from a different configuration reads as
/// a miss instead of poisoning a resume.  `pre_publish`, when non-null, runs
/// between the fsync of the temporary file and the rename -- the test seam
/// for killing a worker mid-checkpoint.  Returns false on I/O failure.
bool save_checkpoint(const std::string& path, const WorkerCheckpoint& state,
                     std::uint64_t config_digest,
                     const std::function<void()>* pre_publish = nullptr);

/// Loads and validates a checkpoint.  Returns nullopt -- a clean miss, never
/// a throw -- on a missing/zero-length/truncated file, checksum mismatch,
/// config-digest mismatch, a previous format, or a snapshot whose
/// accumulators do not match (model, samples, which optional attack
/// accumulators are present).
std::optional<WorkerCheckpoint> load_checkpoint(const std::string& path,
                                                sca::LeakageModel model,
                                                std::size_t samples,
                                                std::uint64_t config_digest,
                                                bool static_power = false,
                                                bool mlpa = false);

}  // namespace pgmcml::campaign
