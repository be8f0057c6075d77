// Workload campaign_sharded: the crash-tolerant distributed campaign.
//
// campaign::run_campaign with forked workers on PG-MCML, with CPA, DPA,
// TVLA, MTD and static power, checkpointing into a fresh spool directory per
// call.  The same acquisition and sca accumulators as attack_stream, used
// differently: each worker folds its shard in parallel, and the timed call
// also covers checkpoint writes, fork supervision and the save/load/merge
// of the shard states.  The seed draws the trace stream.
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pgmcml/cache/cache.hpp"
#include "pgmcml/campaign/campaign.hpp"
#include "pgmcml/campaign/checkpoint.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"

namespace perfbench {

namespace {

using namespace pgmcml;

struct Sizes {
  std::size_t traces;
  std::size_t samples;
  std::size_t shard_size;
  std::size_t checkpoint_every;
  std::size_t batch_size;
  std::size_t setup_reps;  ///< set-ups before the timed loop
  std::size_t setup_reps_per_call;  ///< set-ups after each timed campaign
};

Sizes sizes(const RunOptions& o) {
  if (o.smoke) return {64, 120, 32, 16, 16, 1, 0};
  return {1024, 600, 256, 256, 64, 21, 5};
}

campaign::CampaignOptions campaign_options(const RunOptions& o,
                                           const Sizes& s) {
  campaign::CampaignOptions c;
  c.style = cells::LogicStyle::kPgMcml;
  c.num_traces = s.traces;
  c.samples = s.samples;
  c.seed = util::Rng(o.seed).next_u64();
  // The key stays the Fig. 6 key: with TVLA's fixed plaintext it fixes the
  // input of the whole fixed-class phase, whose simulation cost would
  // otherwise swing with a seed-drawn key.
  c.key = 0x2b;
  c.tvla = true;
  c.compute_mtd = true;
  c.static_power = true;
  c.mlpa = false;
  c.shard_size = s.shard_size;
  c.checkpoint_every = s.checkpoint_every;
  c.batch_size = s.batch_size;
  c.num_workers = o.workers;
  c.worker_threads = 1;
  return c;
}

/// The attack statistics the distributed run must reproduce bit for bit.
std::string statistics_digest(const campaign::CampaignResult& r) {
  Digest d;
  d.value(r.cpa.peak_correlation);
  d.value(r.dpa.peak_difference);
  d.bytes(r.tvla.t_statistic.data(),
          r.tvla.t_statistic.size() * sizeof(double));
  d.value(r.tvla.max_abs_t);
  d.value(r.static_awake.correlation);
  d.value(r.static_asleep.correlation);
  d.value(r.key_rank);
  d.value(r.mtd);
  d.value(r.static_awake_mtd);
  d.value(r.static_asleep_mtd);
  d.value(r.traces_accumulated);
  d.value(r.static_traces_accumulated);
  return d.hex();
}

std::uint64_t traces_attempted(const campaign::CampaignResult& r) {
  std::uint64_t n = 0;
  for (const campaign::ShardOutcome& s : r.shards) {
    n += s.random_attempted + s.fixed_attempted + s.static_attempted;
  }
  return n;
}

std::uint64_t skipped_traces(const campaign::CampaignResult& r) {
  std::uint64_t n = r.diagnostics.skipped;
  for (const campaign::SkippedRange& s : r.skipped_ranges) n += s.hi - s.lo;
  return n;
}

struct SpoolStats {
  std::uint64_t checkpoints = 0;
  std::uint64_t bytes = 0;
};

/// Checkpoints written (as the final checkpoint of every shard records)
/// and bytes left in the spool.
SpoolStats inspect_spool(const campaign::CampaignOptions& c) {
  SpoolStats st;
  const std::uint64_t digest = campaign::campaign_config_digest(c);
  for (std::size_t shard = 0; shard < c.shard_count(); ++shard) {
    const auto ckpt = campaign::load_checkpoint(
        c.spool_dir + "/shard-" + std::to_string(shard) + ".ckpt",
        sca::LeakageModel::kHammingWeight, c.samples, digest, c.static_power,
        c.mlpa);
    if (ckpt) st.checkpoints += ckpt->checkpoints_written;
  }
  for (const auto& entry : std::filesystem::directory_iterator(c.spool_dir)) {
    if (entry.is_regular_file()) st.bytes += entry.file_size();
  }
  return st;
}

/// The acquisition a campaign worker runs for its random phase.
core::DpaFlowOptions flow_options(const campaign::CampaignOptions& c,
                                  std::size_t traces) {
  core::DpaFlowOptions f;
  f.num_traces = traces;
  f.samples = c.samples;
  f.dt = c.dt;
  f.seed = c.seed;
  f.key = c.key;
  f.keep_traces = false;
  f.batch_size = c.batch_size;
  return f;
}

/// Save + load round trip of one shard's accumulator set, filled with a
/// batch of real traces; checks the reload serializes to the same bytes.
double save_load_ms(const campaign::CampaignOptions& c, bool& exact) {
  auto source = core::make_acquisition_source(cells::CellLibrary::pgmcml90(),
                                              flow_options(c, c.batch_size));
  sca::TraceBatch batch;
  source->next(batch);
  const auto model = sca::LeakageModel::kHammingWeight;
  sca::MtdTracker cpa(model, c.samples, c.key, c.num_traces);
  sca::DpaAccumulator dpa(c.samples);
  sca::TvlaAccumulator tvla(c.samples);
  sca::StaticPowerAccumulator awake(model, c.samples, sca::StaticWindow::kAwake);
  sca::StaticPowerAccumulator asleep(model, c.samples,
                                     sca::StaticWindow::kAsleep);
  cpa.add_batch(batch);
  dpa.add_batch(batch);
  tvla.add_batch(batch, c.fixed_plaintext);
  awake.add_batch(batch);
  asleep.add_batch(batch);

  const double t0 = wall_seconds();
  sca::SnapshotWriter w;
  cpa.save(w);
  dpa.save(w);
  tvla.save(w);
  awake.save(w);
  asleep.save(w);
  const std::string bytes = w.take();
  sca::SnapshotReader rd(bytes);
  const sca::MtdTracker cpa2 = sca::MtdTracker::load(rd);
  const sca::DpaAccumulator dpa2 = sca::DpaAccumulator::load(rd);
  const sca::TvlaAccumulator tvla2 = sca::TvlaAccumulator::load(rd);
  const sca::StaticPowerAccumulator awake2 = sca::StaticPowerAccumulator::load(rd);
  const sca::StaticPowerAccumulator asleep2 =
      sca::StaticPowerAccumulator::load(rd);
  const double ms = (wall_seconds() - t0) * 1e3;

  sca::SnapshotWriter again;
  cpa2.save(again);
  dpa2.save(again);
  tvla2.save(again);
  awake2.save(again);
  asleep2.save(again);
  exact = exact && rd.exhausted() && again.buffer() == bytes;
  return ms;
}

}  // namespace

WorkloadResult run_campaign_sharded(const RunOptions& o) {
  WorkloadResult r;
  const Sizes s = sizes(o);
  cache::ResultCache::global().configure(cache::CacheOptions{});
  make_dirs(o.work_dir);
  campaign::CampaignOptions c = campaign_options(o, s);
  {
    Digest d;
    d.value(c.seed);
    d.value(c.key);
    d.value(campaign::campaign_config_digest(c));
    r.inputs_digest = d.hex();
  }

  // Set-up: a fresh spool directory, the options digest every checkpoint
  // is stamped with, and the acquisition source every worker builds first
  // (synthesis, mapping and tracer of the target).  It is repeated before
  // the timed loop and again after every campaign of it, so the median
  // samples the whole run rather than one moment of the host's load.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const double c0 = cpu_seconds_with_children();
    c.spool_dir = fresh_dir(o, "spool");
    (void)campaign::campaign_config_digest(c);
    (void)core::make_acquisition_source(cells::CellLibrary::pgmcml90(),
                                        flow_options(c, c.num_traces));
    setup_s.push_back(cpu_seconds_with_children() - c0);
    std::filesystem::remove_all(c.spool_dir);
  };
  for (std::size_t rep = 0; rep < s.setup_reps; ++rep) set_up();

  // The serial reference, outside the timed region: same shards, same
  // merge, one process, one thread.
  util::set_parallel_threads(1);
  double t0 = wall_seconds();
  const campaign::CampaignResult serial = campaign::run_campaign_serial(c);
  const double serial_1t_s = wall_seconds() - t0;
  const std::string reference = statistics_digest(serial);

  Tracer tracer(o.trace);
  std::vector<double> plain_s, traced_s, coverage;
  Timed timed;  // rates: traces/s per call
  timed.call_ms.emplace_back();
  std::vector<SpoolStats> spools;
  std::uint64_t restarts = 0;
  std::uint64_t skipped_ranges = 0;
  auto one_call = [&](bool traced) {
    Tracer untraced(false);
    Tracer& tr = traced ? tracer : untraced;
    const double a = wall_seconds();
    {
      auto sp = tr.scope("campaign.spool_prepare");
      c.spool_dir = fresh_dir(o, "spool");
    }
    const double cpu0 = cpu_seconds_with_children();
    const double b = wall_seconds();
    campaign::CampaignResult res;
    {
      auto sp = tr.scope("campaign.run_campaign");
      res = campaign::run_campaign(c);
    }
    const double e = wall_seconds();
    const double cpu = cpu_seconds_with_children() - cpu0;
    {
      auto sp = tr.scope("campaign.inspect_spool");
      if (traced) spools.push_back(inspect_spool(c));
      std::filesystem::remove_all(c.spool_dir);
    }
    const double f = wall_seconds();
    r.attempted += 3 * s.traces;  // random, fixed and quiescent phases
    r.failed += skipped_traces(res);
    restarts += res.restarts;
    skipped_ranges += res.skipped_ranges.size();
    r.check(res.restarts == 0,
            std::to_string(res.restarts) + " worker restarts");
    r.check(res.skipped_ranges.empty(),
            std::to_string(res.skipped_ranges.size()) + " skipped ranges");
    r.check(statistics_digest(res) == reference,
            "distributed statistics differ from run_campaign_serial");
    if (traced) {
      traced_s.push_back(f - a);
      coverage.push_back(tracer.coverage(a, f));
    } else {
      const auto done =
          static_cast<double>(traces_attempted(res) - skipped_traces(res));
      plain_s.push_back(f - a);
      timed.call_ms[0].push_back((e - b) * 1e3);
      timed.rates.push_back(done / (e - b));
      timed.units += done;
      timed.cpu_s += cpu;
    }
  };

  const double start = wall_seconds();
  do {
    one_call(false);
    for (std::size_t rep = 0; rep < s.setup_reps_per_call; ++rep) set_up();
    if (o.trace) one_call(true);
  } while (!o.smoke && wall_seconds() - start < o.seconds);

  add_run_metrics(r, o, setup_s, timed);
  if (o.trace) {
    bool exact = true;
    std::vector<double> round_trip_ms;
    for (int rep = 0; rep < (o.smoke ? 1 : 9); ++rep) {
      round_trip_ms.push_back(save_load_ms(c, exact));
    }
    r.check(exact, "accumulator save/load round trip is not exact");
    r.metric("campaign.serial_1t_s", serial_1t_s, "s");
    r.metric("campaign.parallel_efficiency",
             serial_1t_s /
                 (static_cast<double>(o.workers) * median(timed.call_ms[0]) /
                  1e3),
             "ratio");
    r.metric("campaign.checkpoints",
             static_cast<double>(spools.front().checkpoints), "count");
    r.metric("campaign.spool_bytes", static_cast<double>(spools.front().bytes),
             "B");
    r.metric("sca.save_load_ms", median(round_trip_ms), "ms");
    r.metric("campaign.restarts", static_cast<double>(restarts), "count");
    r.metric("campaign.skipped_ranges", static_cast<double>(skipped_ranges),
             "count");
    r.metric("trace.overhead", median(traced_s) / median(plain_s), "ratio");
    r.metric("trace.coverage", median(coverage), "ratio");
    r.chrome_trace = tracer.chrome_trace();
  }

  r.outputs_digest = reference;
  r.context.emplace_back("traces_per_phase",
                         static_cast<std::uint64_t>(s.traces));
  r.context.emplace_back("shards", static_cast<std::uint64_t>(c.shard_count()));
  r.context.emplace_back("checkpoint_every",
                         static_cast<std::uint64_t>(s.checkpoint_every));
  return r;
}

}  // namespace perfbench
