// Small-size tests of the benchmark itself: the seed alone fixes the
// generated inputs and the program's outputs, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::WorkloadResult;

using Workload = std::function<WorkloadResult(const RunOptions&)>;

RunOptions smoke(std::uint64_t seed, std::size_t threads) {
  RunOptions o;
  o.seed = seed;
  o.smoke = true;
  o.threads = threads;
  o.workers = threads;
  o.clients = threads;
  o.work_dir = "perfbench-tests-work";  // relative to the build directory
  return o;
}

class WorkloadTest
    : public ::testing::TestWithParam<std::pair<const char*, Workload>> {};

TEST_P(WorkloadTest, SameSeedSameDigestsTwice) {
  const Workload& run = GetParam().second;
  const WorkloadResult a = run(smoke(11, 1));
  const WorkloadResult b = run(smoke(11, 1));
  ASSERT_TRUE(a.correct) << (a.errors.empty() ? "" : a.errors.front());
  ASSERT_TRUE(b.correct) << (b.errors.empty() ? "" : b.errors.front());
  EXPECT_EQ(a.inputs_digest, b.inputs_digest);
  EXPECT_EQ(a.outputs_digest, b.outputs_digest);
  EXPECT_EQ(a.failed, 0u);
}

TEST_P(WorkloadTest, DigestsDoNotDependOnThreadCount) {
  const Workload& run = GetParam().second;
  const WorkloadResult one = run(smoke(12, 1));
  const WorkloadResult many = run(smoke(12, 2));
  ASSERT_TRUE(one.correct) << (one.errors.empty() ? "" : one.errors.front());
  ASSERT_TRUE(many.correct) << (many.errors.empty() ? "" : many.errors.front());
  EXPECT_EQ(one.inputs_digest, many.inputs_digest);
  EXPECT_EQ(one.outputs_digest, many.outputs_digest);
}

TEST_P(WorkloadTest, DifferentSeedChangesInputs) {
  const Workload& run = GetParam().second;
  EXPECT_NE(run(smoke(13, 1)).inputs_digest, run(smoke(14, 1)).inputs_digest);
}

std::vector<std::string> names(const WorkloadResult& r) {
  std::vector<std::string> out;
  for (const perfbench::Metric& m : r.metrics) out.push_back(m.name);
  return out;
}

TEST_P(WorkloadTest, ReportsEveryEndToEndMetric) {
  const WorkloadResult r = GetParam().second(smoke(15, 1));
  EXPECT_EQ(names(r), (std::vector<std::string>{"setup_s", "peak_rss_mb",
                                                "cpu_ms_per_unit"}));
  for (const perfbench::Metric& m : r.metrics) EXPECT_GT(m.value, 0.0) << m.name;
}

TEST_P(WorkloadTest, TracedRunReportsWallClockOverheadAndCoverage) {
  RunOptions o = smoke(16, 1);
  o.trace = true;
  const WorkloadResult r = GetParam().second(o);
  ASSERT_TRUE(r.correct) << (r.errors.empty() ? "" : r.errors.front());
  const std::vector<std::string> got = names(r);
  for (const char* want : {"throughput_per_s", "latency_p50_ms",
                           "latency_p99_ms", "trace.overhead",
                           "trace.coverage"}) {
    EXPECT_NE(std::find(got.begin(), got.end(), want), got.end()) << want;
  }
  for (const perfbench::Metric& m : r.metrics) {
    if (m.name == "trace.coverage") {
      EXPECT_GT(m.value, 0.0);
      EXPECT_LE(m.value, 1.0);
    }
  }
  EXPECT_TRUE(r.chrome_trace.is_object());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadTest,
    ::testing::Values(
        std::make_pair("attack_stream", Workload(perfbench::run_attack_stream)),
        std::make_pair("characterize_cold",
                       Workload(perfbench::run_characterize_cold)),
        std::make_pair("service_warm", Workload(perfbench::run_service_warm)),
        std::make_pair("campaign_sharded",
                       Workload(perfbench::run_campaign_sharded))),
    [](const auto& info) { return std::string(info.param.first); });

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(perfbench::quantile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile({5.0}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1.0, 2.0}, 1.0), 2.0);
}

}  // namespace
