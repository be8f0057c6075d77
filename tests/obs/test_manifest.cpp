// Bench-manifest envelope and regression gate: schema shape, metric
// directions, atomic writes, and the compare rules bench_compare enforces in
// CI (identical runs pass, a beyond-tolerance degradation of a gated metric
// fails, and unsupported schema versions or malformed metrics are errors,
// not silent passes).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <optional>
#include <string>

#include "bench_manifest.hpp"

namespace {

using pgmcml::bench::Better;
using pgmcml::bench::CompareReport;
using pgmcml::bench::Manifest;
using pgmcml::bench::compare_manifests;
using pgmcml::obs::json::Value;

Value sample_manifest(double seconds, double retries) {
  Manifest m("unit");
  m.metric("stage.seconds", seconds, Better::kLower);
  m.metric("throughput", 100.0, Better::kHigher);
  m.metric("retries", retries, Better::kLower);
  m.metric("key_rank", 3.0, Better::kNone);
  return m.to_json();
}

/// A manifest document at the current schema version with the given
/// metrics object spelled out as JSON text.
Value manifest_with_metrics(const std::string& metrics_json) {
  return Value::parse(
      "{\"schema_version\": " +
      std::to_string(pgmcml::bench::kManifestSchemaVersion) +
      ", \"metrics\": " + metrics_json + "}");
}

TEST(Manifest, EnvelopeShape) {
  Manifest m("shape");
  m.metric("a", 1.0, Better::kLower);
  pgmcml::obs::json::Object extra;
  extra.emplace_back("note", "hello");
  m.section("detail", Value(std::move(extra)));

  // Serialize and reparse: the envelope must be valid JSON with the full
  // provenance header and no clock readings.
  const Value doc = Value::parse(m.to_json().dump(2));
  EXPECT_EQ(pgmcml::bench::kManifestSchemaVersion, 2);
  EXPECT_EQ(doc.number_or("schema_version", -1), 2);
  EXPECT_EQ(doc.string_or("bench", ""), "shape");
  EXPECT_FALSE(doc.string_or("git_sha", "").empty());
  EXPECT_TRUE(doc.find("build_type") != nullptr);
  EXPECT_TRUE(doc.find("threads") != nullptr);
  EXPECT_EQ(doc.find("wall_s"), nullptr);
  EXPECT_EQ(doc.find("cpu_s"), nullptr);
  EXPECT_EQ(doc.find("peak_rss_kb"), nullptr);
  EXPECT_EQ(doc.at("metrics").at("a").number_or("value", -1), 1.0);
  EXPECT_EQ(doc.at("metrics").at("a").string_or("better", ""), "lower");
  EXPECT_EQ(doc.at("sections").at("detail").string_or("note", ""), "hello");
  // The obs snapshot section is always present.
  EXPECT_TRUE(doc.at("obs").find("counters") != nullptr);
}

TEST(Manifest, MetricOverwriteReplacesInPlace) {
  Manifest m("unit");
  m.metric("a", 1.0, Better::kLower);
  m.metric("a", 2.0, Better::kLower);
  const Value doc = m.to_json();
  EXPECT_EQ(doc.at("metrics").as_object().size(), 1u);
  EXPECT_EQ(doc.at("metrics").at("a").number_or("value", -1), 2.0);
}

TEST(Manifest, WriteRoundTripsThroughLoadFile) {
  Manifest m("roundtrip");
  m.metric("retries", 0.0, Better::kLower);
  m.metric("key_rank", 3.0, Better::kNone);
  pgmcml::obs::json::Object extra;
  extra.emplace_back("note", "hello");
  m.section("detail", Value(std::move(extra)));

  const std::string path = ::testing::TempDir() + "manifest_roundtrip_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(m.write(path));
  const std::optional<Value> loaded = pgmcml::obs::json::load_file(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.has_value());
  const Value expected = m.to_json();
  EXPECT_EQ(loaded->at("bench").dump(), expected.at("bench").dump());
  EXPECT_EQ(loaded->at("schema_version").dump(),
            expected.at("schema_version").dump());
  EXPECT_EQ(loaded->at("metrics").dump(), expected.at("metrics").dump());
  EXPECT_EQ(loaded->at("sections").dump(), expected.at("sections").dump());
  EXPECT_TRUE(compare_manifests(expected, *loaded).ok());
}

TEST(Manifest, WriteIntoMissingDirectoryFailsAndLeavesNoFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("manifest_missing_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "BENCH_unit.json";
  Manifest m("unit");
  m.metric("a", 1.0, Better::kLower);
  EXPECT_FALSE(m.write(path.string()));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Compare, IdenticalRunsPass) {
  const Value base = sample_manifest(1.0, 0.0);
  const Value cur = sample_manifest(1.0, 0.0);
  const CompareReport r = compare_manifests(base, cur);
  EXPECT_TRUE(r.ok()) << r.render();
  EXPECT_EQ(r.regressions(), 0u);
}

TEST(Compare, RegressionBeyondThresholdFails) {
  const Value base = sample_manifest(1.0, 0.0);
  // 50% slower with a 25% default threshold: regression.
  const CompareReport r = compare_manifests(base, sample_manifest(1.5, 0.0));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions(), 1u);
}

TEST(Compare, WithinThresholdPasses) {
  const Value base = sample_manifest(1.0, 0.0);
  const CompareReport r = compare_manifests(base, sample_manifest(1.2, 0.0));
  EXPECT_TRUE(r.ok()) << r.render();
}

TEST(Compare, ZeroBaselineGrowthIsRegression) {
  // retries 0 -> 2 cannot be expressed relatively; any growth of a
  // better=lower metric from zero must fail.
  const Value base = sample_manifest(1.0, 0.0);
  const CompareReport r = compare_manifests(base, sample_manifest(1.0, 2.0));
  EXPECT_FALSE(r.ok());
}

TEST(Compare, HigherIsBetterDirection) {
  Manifest base("unit"), worse("unit"), better("unit");
  base.metric("tput", 100.0, Better::kHigher);
  worse.metric("tput", 50.0, Better::kHigher);
  better.metric("tput", 500.0, Better::kHigher);
  EXPECT_FALSE(compare_manifests(base.to_json(), worse.to_json()).ok());
  EXPECT_TRUE(compare_manifests(base.to_json(), better.to_json()).ok());
}

TEST(Compare, GatedMetricMissingFromCurrentFails) {
  const Value base = sample_manifest(1.0, 0.0);
  Manifest cur("unit");
  cur.metric("throughput", 100.0, Better::kHigher);
  cur.metric("retries", 0.0, Better::kLower);
  cur.metric("key_rank", 3.0, Better::kNone);
  const CompareReport r = compare_manifests(base, cur.to_json());
  EXPECT_FALSE(r.ok());
}

TEST(Compare, InformationalMetricsNeverGate) {
  const Value base = sample_manifest(1.0, 0.0);
  Manifest cur("unit");
  cur.metric("stage.seconds", 1.0, Better::kLower);
  cur.metric("throughput", 100.0, Better::kHigher);
  cur.metric("retries", 0.0, Better::kLower);
  cur.metric("key_rank", 250.0, Better::kNone);  // wild change, not gated
  EXPECT_TRUE(compare_manifests(base, cur.to_json()).ok());
}

TEST(Compare, SchemaVersionMismatchIsError) {
  const Value base = sample_manifest(1.0, 0.0);
  Value fake = Value::parse(R"({"schema_version": 99, "metrics": {}})");
  const CompareReport r = compare_manifests(base, fake);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty());
  EXPECT_EQ(r.regressions(), 0u);  // errors, not regressions
}

TEST(Compare, SchemaOneBaselineIsError) {
  // A baseline recorded before the clock fields left the envelope must be
  // re-cut, not compared as if nothing had changed.
  const Value cur = sample_manifest(1.0, 0.0);
  Value old = Value::parse(
      R"({"schema_version": 1, "wall_s": 1.0, "cpu_s": 1.0,
          "peak_rss_kb": 1000,
          "metrics": {"retries": {"value": 0, "better": "lower"}}})");
  const CompareReport r = compare_manifests(old, cur);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty());
  EXPECT_EQ(r.regressions(), 0u);
}

TEST(Compare, NullValuedGatedMetricIsError) {
  // obs::json writes NaN as null; a NaN retry count must not read as 0 and
  // pass against a baseline of 0.
  Manifest cur("unit");
  cur.metric("retries", std::nan(""), Better::kLower);
  const Value reparsed = Value::parse(cur.to_json().dump(2));
  const Value base =
      manifest_with_metrics(R"({"retries": {"value": 0, "better": "lower"}})");
  const CompareReport r = compare_manifests(base, reparsed);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty()) << r.render();
}

TEST(Compare, UnknownDirectionIsError) {
  // A typo in the direction must not silently ungate the metric.
  const Value base =
      manifest_with_metrics(R"({"retries": {"value": 0, "better": "Lower"}})");
  const Value cur =
      manifest_with_metrics(R"({"retries": {"value": 5, "better": "Lower"}})");
  const CompareReport r = compare_manifests(base, cur);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty()) << r.render();
}

TEST(Compare, BareNumberMetricIsError) {
  const Value base = manifest_with_metrics(R"({"retries": 0})");
  const CompareReport r = compare_manifests(base, base);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.errors.empty());
}

}  // namespace
