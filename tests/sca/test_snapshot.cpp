// Accumulator snapshot serialization: the campaign checkpoint contract.
// load(save(x)) must restore the IDENTICAL arithmetic state -- continuing a
// loaded accumulator produces results bitwise equal to never having paused
// -- and the reader must reject truncated or mismatched streams loudly.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"
#include "support/one_trace.hpp"

namespace pgmcml::sca {
namespace {

TraceSet synthetic_traces(std::uint8_t key, std::size_t n,
                          std::size_t samples = 24, std::uint64_t seed = 11) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(samples);
    for (auto& v : tr) v = rng.gaussian(0.0, 0.3);
    tr[7] += 0.5 * util::hamming_weight(aes::reduced_target(p, key));
    ts.add(p, tr);
  }
  return ts;
}

/// Serialized form of an accumulator -- byte equality of two saves is the
/// strongest "identical state" check available without friend access.
template <typename Acc>
std::string serialized(const Acc& acc) {
  SnapshotWriter w;
  acc.save(w);
  return w.take();
}

TEST(Snapshot, ScalarsAndSpansRoundTrip) {
  SnapshotWriter w;
  w.tag("TST1");
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.0);
  const std::vector<double> v{1.5, -2.25, 1e-300};
  w.f64_span(v);
  w.bytes("payload");

  SnapshotReader r(w.buffer());
  r.expect_tag("TST1");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  const double neg_zero = r.f64();
  EXPECT_EQ(std::memcmp(&neg_zero, "\0\0\0\0\0\0\0\x80", 8), 0);
  std::vector<double> back;
  r.f64_into(back, v.size());
  EXPECT_EQ(back, v);
  EXPECT_EQ(r.bytes(), "payload");
  EXPECT_TRUE(r.exhausted());
}

TEST(Snapshot, ReaderRejectsTruncationAndBadTags) {
  SnapshotWriter w;
  w.tag("TST1");
  w.u64(99);
  const std::string full = w.buffer();

  SnapshotReader bad_tag(full);
  EXPECT_THROW(bad_tag.expect_tag("NOPE"), std::runtime_error);

  SnapshotReader truncated(std::string_view(full.data(), full.size() - 3));
  truncated.expect_tag("TST1");
  EXPECT_THROW(truncated.u64(), std::runtime_error);

  // A corrupt vector length is rejected before any allocation.
  SnapshotWriter wl;
  wl.u64(UINT64_MAX);
  SnapshotReader huge(wl.buffer());
  std::vector<double> out;
  EXPECT_THROW(huge.f64_into(out, 4), std::runtime_error);
}

TEST(Snapshot, CpaResumesBitwise) {
  const std::uint8_t key = 0x2b;
  const TraceSet ts = synthetic_traces(key, 120);
  CpaAccumulator live(LeakageModel::kHammingWeight, ts.samples_per_trace());
  for (std::size_t i = 0; i < 60; ++i) live.add(ts.plaintext(i), ts.trace(i));

  SnapshotWriter w;
  live.save(w);
  SnapshotReader r(w.buffer());
  CpaAccumulator resumed = CpaAccumulator::load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(serialized(resumed), serialized(live));

  // The loaded accumulator continues the identical arithmetic sequence.
  for (std::size_t i = 60; i < ts.num_traces(); ++i) {
    live.add(ts.plaintext(i), ts.trace(i));
    resumed.add(ts.plaintext(i), ts.trace(i));
  }
  const CpaResult a = live.snapshot();
  const CpaResult b = resumed.snapshot();
  EXPECT_EQ(std::memcmp(a.peak_correlation.data(), b.peak_correlation.data(),
                        sizeof(a.peak_correlation)),
            0);
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(Snapshot, DpaAndTvlaResumeBitwise) {
  const TraceSet ts = synthetic_traces(0x2b, 100);
  DpaAccumulator dpa(ts.samples_per_trace());
  TvlaAccumulator tvla(ts.samples_per_trace());
  for (std::size_t i = 0; i < 50; ++i) {
    add_one(dpa, ts.plaintext(i), ts.trace(i));
    tvla.add(i % 2 == 0, ts.trace(i));
  }
  SnapshotWriter w;
  dpa.save(w);
  tvla.save(w);
  SnapshotReader r(w.buffer());
  DpaAccumulator dpa2 = DpaAccumulator::load(r);
  TvlaAccumulator tvla2 = TvlaAccumulator::load(r);
  EXPECT_TRUE(r.exhausted());
  for (std::size_t i = 50; i < ts.num_traces(); ++i) {
    add_one(dpa, ts.plaintext(i), ts.trace(i));
    add_one(dpa2, ts.plaintext(i), ts.trace(i));
    tvla.add(i % 2 == 0, ts.trace(i));
    tvla2.add(i % 2 == 0, ts.trace(i));
  }
  EXPECT_EQ(serialized(dpa2), serialized(dpa));
  EXPECT_EQ(serialized(tvla2), serialized(tvla));
  const double ta = tvla.snapshot().max_abs_t;
  const double tb = tvla2.snapshot().max_abs_t;
  EXPECT_EQ(std::memcmp(&ta, &tb, sizeof(ta)), 0);
}

TEST(Snapshot, MtdTrackerResumesToSameDisclosure) {
  const std::uint8_t key = 0x2b;
  const TraceSet ts = synthetic_traces(key, 160);

  MtdTracker straight(LeakageModel::kHammingWeight, ts.samples_per_trace(),
                      key, ts.num_traces());
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    straight.add(ts.plaintext(i), ts.trace(i));
  }

  MtdTracker first(LeakageModel::kHammingWeight, ts.samples_per_trace(), key,
                   ts.num_traces());
  for (std::size_t i = 0; i < 70; ++i) first.add(ts.plaintext(i), ts.trace(i));
  SnapshotWriter w;
  first.save(w);
  SnapshotReader r(w.buffer());
  MtdTracker resumed = MtdTracker::load(r);
  EXPECT_TRUE(r.exhausted());
  for (std::size_t i = 70; i < ts.num_traces(); ++i) {
    resumed.add(ts.plaintext(i), ts.trace(i));
  }
  EXPECT_EQ(resumed.finish(), straight.finish());
  EXPECT_EQ(serialized(resumed.accumulator()),
            serialized(straight.accumulator()));
}

TEST(Snapshot, MtdTrackerStreamsKeepTheirLayout) {
  // Every tracker writes its tag, its accumulator's own stream, then the
  // true key, the grid cursor, the grid and one verdict byte per point.
  const std::uint8_t key = 0x2b;
  const TraceSet ts = synthetic_traces(key, 70);
  const std::size_t m = ts.samples_per_trace();
  MtdTracker cpa(LeakageModel::kHammingWeight, m, key, 160);
  StaticMtdTracker st(LeakageModel::kHammingWeight, m, StaticWindow::kAll, key,
                      160);
  MlpaMtdTracker mlpa(m, key, 160);
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    cpa.add(ts.plaintext(i), ts.trace(i));
    st.add(ts.plaintext(i), ts.trace(i));
    mlpa.add(ts.plaintext(i), ts.trace(i));
  }
  // 160 expected traces on 16 points: a grid of 10, 20, ..., 160, of which
  // the 70 traces streamed have reached 7.
  SnapshotWriter tail;
  tail.u8(key);
  tail.u64(7);
  tail.u64(16);
  for (std::uint64_t g = 1; g <= 16; ++g) tail.u64(10 * g);
  const auto expect_layout = [&](const std::string& bytes, const char* tag,
                                 const std::string& acc) {
    const std::string head = std::string(tag, 4) + acc + tail.buffer();
    ASSERT_EQ(bytes.size(), head.size() + 16);
    EXPECT_EQ(bytes.substr(0, head.size()), head);
  };
  expect_layout(serialized(cpa), "MTD1", serialized(cpa.accumulator()));
  expect_layout(serialized(st), "SMT1", serialized(st.accumulator()));
  expect_layout(serialized(mlpa), "MMT1", serialized(mlpa.accumulator()));
}

TEST(Snapshot, StaticPowerResumesBitwise) {
  const TraceSet ts = synthetic_traces(0x2b, 120);
  StaticPowerAccumulator live(LeakageModel::kHammingWeight,
                              ts.samples_per_trace(), StaticWindow::kAwake);
  for (std::size_t i = 0; i < 60; ++i) {
    add_one(live, ts.plaintext(i), ts.trace(i));
  }

  SnapshotWriter w;
  live.save(w);
  SnapshotReader r(w.buffer());
  StaticPowerAccumulator resumed = StaticPowerAccumulator::load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(resumed.window(), StaticWindow::kAwake);
  EXPECT_EQ(resumed.model(), LeakageModel::kHammingWeight);
  EXPECT_EQ(serialized(resumed), serialized(live));

  for (std::size_t i = 60; i < ts.num_traces(); ++i) {
    add_one(live, ts.plaintext(i), ts.trace(i));
    add_one(resumed, ts.plaintext(i), ts.trace(i));
  }
  EXPECT_EQ(serialized(resumed), serialized(live));
  const auto a = live.snapshot();
  const auto b = resumed.snapshot();
  EXPECT_EQ(std::memcmp(a.correlation.data(), b.correlation.data(),
                        sizeof(a.correlation)),
            0);
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(Snapshot, MlpaResumesBitwise) {
  const TraceSet ts = synthetic_traces(0x2b, 100);
  MlpaAccumulator live(ts.samples_per_trace());
  for (std::size_t i = 0; i < 50; ++i) {
    add_one(live, ts.plaintext(i), ts.trace(i));
  }

  SnapshotWriter w;
  live.save(w);
  SnapshotReader r(w.buffer());
  MlpaAccumulator resumed = MlpaAccumulator::load(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(serialized(resumed), serialized(live));

  for (std::size_t i = 50; i < ts.num_traces(); ++i) {
    add_one(live, ts.plaintext(i), ts.trace(i));
    add_one(resumed, ts.plaintext(i), ts.trace(i));
  }
  EXPECT_EQ(serialized(resumed), serialized(live));
  const auto sa = live.snapshot().score;
  const auto sb = resumed.snapshot().score;
  EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sizeof(sa)), 0);
}

TEST(Snapshot, StaticAndMlpaMtdTrackersResumeToSameDisclosure) {
  const std::uint8_t key = 0x2b;
  const TraceSet ts = synthetic_traces(key, 160);

  StaticMtdTracker s_straight(LeakageModel::kHammingWeight,
                              ts.samples_per_trace(), StaticWindow::kAll, key,
                              ts.num_traces());
  MlpaMtdTracker m_straight(ts.samples_per_trace(), key, ts.num_traces());
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    s_straight.add(ts.plaintext(i), ts.trace(i));
    m_straight.add(ts.plaintext(i), ts.trace(i));
  }

  StaticMtdTracker s_first(LeakageModel::kHammingWeight,
                           ts.samples_per_trace(), StaticWindow::kAll, key,
                           ts.num_traces());
  MlpaMtdTracker m_first(ts.samples_per_trace(), key, ts.num_traces());
  for (std::size_t i = 0; i < 70; ++i) {
    s_first.add(ts.plaintext(i), ts.trace(i));
    m_first.add(ts.plaintext(i), ts.trace(i));
  }
  SnapshotWriter w;
  s_first.save(w);
  m_first.save(w);
  SnapshotReader r(w.buffer());
  StaticMtdTracker s_resumed = StaticMtdTracker::load(r);
  MlpaMtdTracker m_resumed = MlpaMtdTracker::load(r);
  EXPECT_TRUE(r.exhausted());
  for (std::size_t i = 70; i < ts.num_traces(); ++i) {
    s_resumed.add(ts.plaintext(i), ts.trace(i));
    m_resumed.add(ts.plaintext(i), ts.trace(i));
  }
  EXPECT_EQ(s_resumed.finish(), s_straight.finish());
  EXPECT_EQ(m_resumed.finish(), m_straight.finish());
  EXPECT_EQ(serialized(s_resumed.accumulator()),
            serialized(s_straight.accumulator()));
  EXPECT_EQ(serialized(m_resumed.accumulator()),
            serialized(m_straight.accumulator()));
}

TEST(Snapshot, LoadRejectsCorruptStaticAndMlpaStreams) {
  StaticPowerAccumulator sp(LeakageModel::kHammingWeight, 8,
                            StaticWindow::kAsleep);
  add_one(sp, 0x10, std::vector<double>(8, 1.0));
  SnapshotWriter ws;
  sp.save(ws);
  const std::string sp_bytes = ws.take();

  // Truncated mid-state.
  SnapshotReader short_r(
      std::string_view(sp_bytes.data(), sp_bytes.size() / 2));
  EXPECT_THROW(StaticPowerAccumulator::load(short_r), std::runtime_error);

  MlpaAccumulator ml(8);
  add_one(ml, 0x10, std::vector<double>(8, 1.0));
  SnapshotWriter wm;
  ml.save(wm);
  const std::string ml_bytes = wm.take();
  SnapshotReader ml_short(
      std::string_view(ml_bytes.data(), ml_bytes.size() - 5));
  EXPECT_THROW(MlpaAccumulator::load(ml_short), std::runtime_error);

  // Wrong leading tag in both directions: the streams are not confusable.
  SnapshotReader sp_as_mlpa(sp_bytes);
  EXPECT_THROW(MlpaAccumulator::load(sp_as_mlpa), std::runtime_error);
  SnapshotReader mlpa_as_sp(ml_bytes);
  EXPECT_THROW(StaticPowerAccumulator::load(mlpa_as_sp), std::runtime_error);

  // A corrupted window enum must be rejected, not trusted.
  std::string bad_window = sp_bytes;
  bad_window[8] = 0x7f;  // window u32 follows the 4-char tag + model u32
  SnapshotReader bad_r(bad_window);
  EXPECT_THROW(StaticPowerAccumulator::load(bad_r), std::runtime_error);
}

TEST(Snapshot, LoadRejectsCorruptAccumulatorStreams) {
  CpaAccumulator acc(LeakageModel::kHammingWeight, 8);
  SnapshotWriter w;
  acc.save(w);
  std::string bytes = w.take();

  // Truncated mid-state.
  SnapshotReader short_r(std::string_view(bytes.data(), bytes.size() / 2));
  EXPECT_THROW(CpaAccumulator::load(short_r), std::runtime_error);

  // Wrong leading tag (a DPA stream is not a CPA stream).
  DpaAccumulator dpa(8);
  SnapshotWriter wd;
  dpa.save(wd);
  SnapshotReader wrong(wd.buffer());
  EXPECT_THROW(CpaAccumulator::load(wrong), std::runtime_error);
}

TEST(Snapshot, PreviousFormatTagsAreRejected) {
  // The bucketed CPA/DPA/MLPA layouts replaced the per-guess ones under new
  // tags: a stream written by the old layout must fail loudly, not load.
  const TraceSet ts = synthetic_traces(0x2b, 10, 8);
  CpaAccumulator cpa(LeakageModel::kHammingWeight, 8);
  DpaAccumulator dpa(8);
  MlpaAccumulator mlpa(8);
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    cpa.add(ts.plaintext(i), ts.trace(i));
    add_one(dpa, ts.plaintext(i), ts.trace(i));
    add_one(mlpa, ts.plaintext(i), ts.trace(i));
  }
  const auto as_old = [](std::string bytes, const char* old_tag) {
    EXPECT_EQ(bytes[3], '2');
    std::memcpy(bytes.data(), old_tag, 4);
    return bytes;
  };
  const std::string old_cpa = as_old(serialized(cpa), "CPA1");
  const std::string old_dpa = as_old(serialized(dpa), "DPA1");
  const std::string old_mlpa = as_old(serialized(mlpa), "MLP1");
  SnapshotReader rc(old_cpa);
  EXPECT_THROW(CpaAccumulator::load(rc), std::runtime_error);
  SnapshotReader rd(old_dpa);
  EXPECT_THROW(DpaAccumulator::load(rd), std::runtime_error);
  SnapshotReader rm(old_mlpa);
  EXPECT_THROW(MlpaAccumulator::load(rm), std::runtime_error);
}

TEST(Snapshot, LoadRejectsInconsistentBucketCounts) {
  DpaAccumulator dpa(4);
  add_one(dpa, 0x10, std::vector<double>(4, 1.0));
  add_one(dpa, 0x20, std::vector<double>(4, 2.0));
  std::string bytes = serialized(dpa);
  // Layout: tag, u64 samples, u64 traces, then the 256 u64 bucket counts.
  const std::uint64_t bogus_traces = 3;
  std::memcpy(bytes.data() + 4 + 8, &bogus_traces, sizeof(bogus_traces));
  SnapshotReader r(bytes);
  EXPECT_THROW(DpaAccumulator::load(r), std::runtime_error);

  // A sample count the stream cannot hold is rejected before allocating.
  std::string huge = serialized(dpa);
  const std::uint64_t width = std::uint64_t{1} << 40;
  std::memcpy(huge.data() + 4, &width, sizeof(width));
  SnapshotReader rh(huge);
  EXPECT_THROW(DpaAccumulator::load(rh), std::runtime_error);
}

TEST(Snapshot, TvlaLoadRejectsWidthTheStreamCannotHold) {
  // A corrupt sample count must not size the four per-sample rows before
  // anything else is read: m = 2^61 would ask for 2^66 bytes.  It is
  // rejected up front, as the runtime_error every malformed stream raises.
  SnapshotWriter w;
  w.tag("TVL1");
  w.u64(std::uint64_t{1} << 61);
  w.u64(1);  // fixed-class traces
  w.u64(1);  // random-class traces
  for (int i = 0; i < 8; ++i) w.f64(0.0);
  SnapshotReader r(w.buffer());
  EXPECT_THROW(TvlaAccumulator::load(r), std::runtime_error);
}

}  // namespace
}  // namespace pgmcml::sca
