// Tests of the benchmark's own helpers: percentiles with their sample
// counts, schedule determinism per seed, metric-name validity, and that
// BENCHMARK.json declares exactly the metrics the driver can print.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "metric_names.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Percentile, SummaryCarriesCountAndRefusesThinTails) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const LatencySummary s = summarize(v, 0.99);
  EXPECT_EQ(s.count, 1000);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  v.resize(999);
  EXPECT_THROW((void)summarize(v, 0.99), std::runtime_error);
  EXPECT_NO_THROW((void)summarize(v, 0.95));
}

TEST(Percentile, PooledRateOverBursts) {
  std::vector<double> fast, slow;
  for (int i = 1; i <= 100; ++i) fast.push_back(i * 1.0);  // 100 events in 100 ms
  for (int i = 1; i <= 100; ++i) slow.push_back(i * 3.0);  // 100 events in 300 ms
  EXPECT_DOUBLE_EQ(pooled_rate({fast}), 1000.0);
  EXPECT_DOUBLE_EQ(pooled_rate({fast, slow, {}}), 500.0);  // 200 events in 400 ms
  EXPECT_DOUBLE_EQ(pooled_rate({}), 0.0);
}

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule_ms(200.0, 5000.0, 7);
  const auto b = poisson_schedule_ms(200.0, 5000.0, 7);
  const auto c = poisson_schedule_ms(200.0, 5000.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Schedule, PoissonRateAndOrder) {
  const auto a = poisson_schedule_ms(500.0, 20000.0, 3);
  // 10000 expected arrivals; 5 sigma = 500.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 20000.0);
  EXPECT_GT(a.front(), 0.0);
}

TEST(Schedule, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
  EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
  EXPECT_EQ(mix_seed(5, 3), mix_seed(5, 3));
}

TEST(MetricNames, Validity) {
  EXPECT_TRUE(valid_metric_name("p50_ms"));
  EXPECT_TRUE(valid_metric_name("runtime.op.self_us.csr-conv"));
  EXPECT_TRUE(valid_metric_name("0x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  for (const auto& m : kEndToEndMetrics) EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
  for (const auto& m : per_layer_metrics()) EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
}

TEST(MetricNames, ResultRejectsBadAndDuplicateNames) {
  Result r;
  r.metric("a.b", 1.0, "ms");
  EXPECT_THROW(r.metric("a.b", 2.0, "ms"), std::logic_error);
  EXPECT_THROW(r.metric("bad name", 2.0, "ms"), std::logic_error);
  EXPECT_THROW(r.metric("nan", std::nan(""), "ms"), std::runtime_error);
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(1.0 / 3.0), "0.3333333333333333");
}

/// name -> unit of the metrics listed under `key` in BENCHMARK.json (a
/// flat scan for "name" and "unit" entries between the key and the next
/// ']'), plus the number of entries seen.
std::pair<std::map<std::string, std::string>, std::size_t> declared(const std::string& json,
                                                                    const std::string& key) {
  std::map<std::string, std::string> out;
  std::size_t count = 0;
  std::size_t pos = json.find("\"" + key + "\"");
  const std::size_t end = json.find(']', pos);
  const std::string name_tag = "\"name\": \"";
  const std::string unit_tag = "\"unit\": \"";
  while ((pos = json.find(name_tag, pos)) != std::string::npos && pos < end) {
    pos += name_tag.size();
    const std::string name = json.substr(pos, json.find('"', pos) - pos);
    pos = json.find(unit_tag, pos) + unit_tag.size();
    out[name] = json.substr(pos, json.find('"', pos) - pos);
    ++count;
  }
  return {out, count};
}

std::map<std::string, std::string> as_map(const std::vector<MetricName>& names) {
  std::map<std::string, std::string> out;
  for (const auto& m : names) out[m.name] = m.unit;
  return out;
}

TEST(MetricNames, MatchBenchmarkJson) {
  std::ifstream f(PERFBENCH_JSON);
  ASSERT_TRUE(f) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  const auto [e2e, e2e_count] = declared(json, "end_to_end");
  const auto [layer, layer_count] = declared(json, "per_layer");
  EXPECT_EQ(e2e, as_map(kEndToEndMetrics));
  EXPECT_EQ(e2e_count, kEndToEndMetrics.size());
  EXPECT_EQ(layer, as_map(per_layer_metrics()));
  EXPECT_EQ(layer_count, per_layer_metrics().size());
}

}  // namespace
}  // namespace perfbench
