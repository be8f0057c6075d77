// Observability-layer invariants: exact counters, log2 histogram placement,
// associative merges, thread-count-invariant snapshots, and JSON round
// trips.  These pin the same aggregation discipline the PR 3 accumulator
// tests pin: integer fields are exact sums, so distributing the work over
// util::parallel_for must not change a snapshot.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

namespace {

using namespace pgmcml;
using obs::HistogramData;
using obs::Registry;
using obs::Snapshot;

TEST(ObsCounter, AddsAndReads) {
  Registry reg;
  obs::Counter c = reg.counter("a.b");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.snapshot().counter("a.b"), 42u);
  EXPECT_EQ(reg.snapshot().counter("never.touched"), 0u);
}

TEST(ObsCounter, DefaultHandleIsInert) {
  obs::Counter c;
  c.add(5);  // must not crash
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsHistogram, BucketPlacement) {
  // Bucket b covers [2^(b-31), 2^(b-30)): 1.0 = 2^0 lands in bucket 31.
  EXPECT_EQ(obs::histogram_bucket(1.0), 31u);
  EXPECT_EQ(obs::histogram_bucket(1.5), 31u);
  EXPECT_EQ(obs::histogram_bucket(2.0), 32u);
  EXPECT_EQ(obs::histogram_bucket(0.5), 30u);
  // Clamps: tiny, zero, negative and non-finite inputs go to bucket 0,
  // huge ones to the top bucket.
  EXPECT_EQ(obs::histogram_bucket(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(-3.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1e-300), 0u);
  EXPECT_EQ(obs::histogram_bucket(std::numeric_limits<double>::quiet_NaN()),
            0u);
  EXPECT_EQ(obs::histogram_bucket(1e300), obs::kHistogramBuckets - 1);
}

TEST(ObsHistogram, ObserveTracksMoments) {
  Registry reg;
  obs::Histogram h = reg.histogram("lat");
  h.observe(1.0);
  h.observe(4.0);
  h.observe(0.25);
  const HistogramData d = reg.snapshot().histograms.at("lat");
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 5.25);
  EXPECT_DOUBLE_EQ(d.min, 0.25);
  EXPECT_DOUBLE_EQ(d.max, 4.0);
  EXPECT_DOUBLE_EQ(d.mean(), 1.75);
  EXPECT_EQ(d.buckets[31], 1u);  // 1.0
  EXPECT_EQ(d.buckets[33], 1u);  // 4.0
  EXPECT_EQ(d.buckets[29], 1u);  // 0.25
}

TEST(ObsHistogram, NonFiniteObservationsDoNotPoison) {
  Registry reg;
  obs::Histogram h = reg.histogram("lat");
  h.observe(2.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  const HistogramData d = reg.snapshot().histograms.at("lat");
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 2.0);
  EXPECT_DOUBLE_EQ(d.min, 2.0);
  EXPECT_DOUBLE_EQ(d.max, 2.0);
}

/// Builds a HistogramData from dyadic observations (sum stays bitwise
/// associative: dyadic additions are exact in binary floating point).
HistogramData make_hist(const std::vector<double>& values) {
  Registry reg;
  obs::Histogram h = reg.histogram("h");
  for (double v : values) h.observe(v);
  return reg.snapshot().histograms.at("h");
}

TEST(ObsMerge, HistogramMergeIsAssociativeAndCommutative) {
  const HistogramData a = make_hist({0.5, 1.0, 2.0});
  const HistogramData b = make_hist({4.0, 0.25});
  const HistogramData c = make_hist({8.0});

  HistogramData ab = a;
  ab.merge(b);
  HistogramData ab_c = ab;
  ab_c.merge(c);

  HistogramData bc = b;
  bc.merge(c);
  HistogramData a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c, a_bc);

  HistogramData ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  // Merging an empty histogram is the identity.
  HistogramData a_e = a;
  a_e.merge(HistogramData{});
  EXPECT_EQ(a_e, a);
}

TEST(ObsMerge, SnapshotMergeCombinesDisjointAndShared) {
  Registry r1, r2;
  r1.counter("shared").add(2);
  r1.counter("only1").add(1);
  r2.counter("shared").add(3);
  r2.counter("only2").add(4);
  r1.histogram("h").observe(1.0);
  r2.histogram("h").observe(2.0);

  Snapshot s = r1.snapshot();
  s.merge(r2.snapshot());
  EXPECT_EQ(s.counter("shared"), 5u);
  EXPECT_EQ(s.counter("only1"), 1u);
  EXPECT_EQ(s.counter("only2"), 4u);
  EXPECT_EQ(s.histograms.at("h").count, 2u);
  EXPECT_DOUBLE_EQ(s.histograms.at("h").sum, 3.0);
}

TEST(ObsParallel, SnapshotIsThreadCountInvariant) {
  // The same 1000 work units must produce identical integer state at 1
  // thread and at the default thread count (sums of identical increments
  // commute; dyadic values keep even the double sum exact).
  const auto run = [](std::size_t threads) {
    util::set_parallel_threads(threads);
    Registry reg;
    obs::Counter c = reg.counter("work");
    obs::Histogram h = reg.histogram("size");
    util::parallel_for(1000, [&](std::size_t i) {
      c.add(i % 7);
      h.observe(static_cast<double>(1u << (i % 10)));
    });
    util::set_parallel_threads(0);
    return reg.snapshot();
  };
  const Snapshot serial = run(1);
  const Snapshot parallel = run(0);
  EXPECT_EQ(serial.counter("work"), parallel.counter("work"));
  EXPECT_EQ(serial.histograms.at("size"), parallel.histograms.at("size"));
}

TEST(ObsTimer, SpansNestHierarchically) {
  Registry reg;
  {
    obs::ScopedTimer outer("outer", reg);
    { obs::ScopedTimer inner("inner", reg); }
  }
  // The outer span closed too: a new span is a root again.
  { obs::ScopedTimer after("after", reg); }

  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.histograms.at("time/outer").count, 1u);
  EXPECT_EQ(s.histograms.at("time/outer/inner").count, 1u);
  EXPECT_EQ(s.histograms.at("time/after").count, 1u);
  EXPECT_GE(s.histograms.at("time/outer").sum,
            s.histograms.at("time/outer/inner").sum);
}

TEST(ObsJson, SnapshotRoundTrips) {
  Registry reg;
  reg.counter("a").add(7);
  reg.counter("b.c").add(123456789);
  reg.histogram("h1").observe(0.125);
  reg.histogram("h1").observe(1024.0);
  reg.histogram("empty");  // zero-count histogram must survive the trip

  const Snapshot before = reg.snapshot();
  const obs::json::Value doc =
      obs::json::Value::parse(before.to_json().dump());
  const Snapshot after = Snapshot::from_json(doc);
  EXPECT_EQ(before.counters, after.counters);
  EXPECT_EQ(before.histograms, after.histograms);
}

TEST(ObsJson, FromJsonRejectsMalformedBuckets) {
  const auto doc = obs::json::Value::parse(
      R"({"counters": {}, "histograms": {"h": {"count": 1, "sum": 1.0,)"
      R"( "min": 1.0, "max": 1.0, "buckets": [[99, 1]]}}})");
  EXPECT_THROW(Snapshot::from_json(doc), std::runtime_error);
}

TEST(ObsJson, ValueParserHandlesEscapesAndRejectsGarbage) {
  using obs::json::Value;
  const Value v = Value::parse(R"({"k": "aA\n", "n": [1, 2.5, true]})");
  EXPECT_EQ(v.at("k").as_string(), "aA\n");
  EXPECT_EQ(v.at("n").as_array().size(), 3u);
  EXPECT_THROW(Value::parse("{"), obs::json::ParseError);
  EXPECT_THROW(Value::parse("[1,]"), obs::json::ParseError);
  EXPECT_THROW(Value::parse("{} trailing"), obs::json::ParseError);
  // Integral doubles survive a dump/parse round trip exactly.
  EXPECT_EQ(Value::parse(Value(std::uint64_t{1} << 50).dump()).as_number(),
            std::ldexp(1.0, 50));
}

}  // namespace
