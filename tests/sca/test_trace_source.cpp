// The streaming boundary: TraceSetSource, the zero-copy prefix view.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::sca {
namespace {

TraceSet make_traces(std::size_t n, std::size_t samples,
                     std::uint64_t seed = 11) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> tr(samples);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  return ts;
}

TEST(TraceSetSource, YieldsAllTracesInOrder) {
  const TraceSet ts = make_traces(20, 6);
  TraceSetSource source(ts, TraceSetSource::kNoLimit, 7);
  EXPECT_EQ(source.samples_per_trace(), 6u);
  EXPECT_EQ(source.size_hint(), 20u);

  TraceBatch batch;
  std::size_t seen = 0;
  while (source.next(batch)) {
    ASSERT_LE(batch.size(), 7u);
    for (std::size_t i = 0; i < batch.size(); ++i, ++seen) {
      EXPECT_EQ(batch.plaintexts[i], ts.plaintext(seen));
      // Zero-copy: the view aliases the TraceSet's own storage.
      EXPECT_EQ(batch.traces[i].data(), ts.trace(seen).data());
    }
  }
  EXPECT_EQ(seen, 20u);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(source.next(batch));  // stays exhausted
}

TEST(TraceSetSource, LimitIsAPrefixViewWithoutCopying) {
  const TraceSet ts = make_traces(50, 8);
  TraceSetSource limited(ts, 12);
  EXPECT_EQ(limited.size_hint(), 12u);

  // The streamed attack over the limited view is bitwise the attack over a
  // deep copy of the first 12 traces.
  TraceSet head(ts.samples_per_trace());
  for (std::size_t i = 0; i < 12; ++i) head.add(ts.plaintext(i), ts.trace(i));
  const CpaResult via_view = cpa_attack(limited);
  const CpaResult via_copy = cpa_attack(head);
  for (int k = 0; k < 256; ++k) {
    EXPECT_EQ(via_view.peak_correlation[k], via_copy.peak_correlation[k]);
  }

  // A limit beyond the set clamps to the set.
  TraceSetSource beyond(ts, 99);
  EXPECT_EQ(beyond.size_hint(), 50u);
}

TEST(TraceSetSource, ZeroBatchSizeThrows) {
  const TraceSet ts = make_traces(3, 4);
  EXPECT_THROW(TraceSetSource(ts, TraceSetSource::kNoLimit, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pgmcml::sca
