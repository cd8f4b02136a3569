// Poisson loadgen: the arrival process must have the right statistics
// and determinism, and an open-loop run must account for every arrival.
#include <gtest/gtest.h>

#include <memory>

#include "nn/models/zoo.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/compiled_network.hpp"
#include "serve/loadgen.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"

namespace ndsnn::serve {
namespace {

using runtime::BatchExecutor;
using runtime::CompiledNetwork;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

TEST(LoadgenTest, ArrivalTimesAreStrictlyIncreasingFromZero) {
  const auto times = poisson_arrival_times_ms(200.0, 500, 42);
  ASSERT_EQ(times.size(), 500U);
  EXPECT_GT(times.front(), 0.0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]) << "arrival " << i;
  }
}

TEST(LoadgenTest, MeanInterArrivalGapMatchesTheOfferedRate) {
  const double rps = 400.0;
  const int64_t n = 4000;
  const auto times = poisson_arrival_times_ms(rps, n, 7);
  // Mean gap of an exponential process is 1000/rps ms; at n=4000 the
  // sample mean should land well inside 10% of it.
  const double mean_gap = times.back() / static_cast<double>(n);
  const double expected = 1000.0 / rps;
  EXPECT_NEAR(mean_gap, expected, expected * 0.10);
}

TEST(LoadgenTest, ArrivalScheduleIsDeterministicPerSeed) {
  const auto a = poisson_arrival_times_ms(100.0, 64, 9);
  const auto b = poisson_arrival_times_ms(100.0, 64, 9);
  const auto c = poisson_arrival_times_ms(100.0, 64, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "arrival " << i;
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size() && !any_differ; ++i) any_differ = a[i] != c[i];
  EXPECT_TRUE(any_differ) << "different seeds produced identical schedules";
}

TEST(LoadgenTest, OpenLoopRunAccountsForEveryArrival) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  spec.seed = 51;
  const auto net = nn::make_lenet5(spec);
  Rng mask_rng(52);
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(static_cast<double>(p.value->numel()) * 0.1);
    const sparse::Mask mask(p.value->shape(), active, mask_rng);
    mask.apply(*p.value);
  }
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  BatchExecutor exec(compiled, 1);

  Tensor sample(Shape{1, 1, 16, 16});
  Rng rng(53);
  sample.fill_uniform(rng, 0.0F, 1.0F);

  LoadgenOptions lopts;
  lopts.offered_rps = 500.0;  // modest for a sub-ms service time
  lopts.requests = 24;
  lopts.seed = 3;
  const LoadgenResult r = run_open_loop(exec, sample, lopts);

  EXPECT_EQ(r.offered, lopts.requests);
  EXPECT_EQ(r.completed + r.shed, r.offered);
  EXPECT_GT(r.completed, 0);
  EXPECT_GT(r.duration_s, 0.0);
  EXPECT_GT(r.achieved_rps, 0.0);
  // Percentiles over the admitted window are populated and ordered.
  EXPECT_GT(r.e2e_p50_ms, 0.0);
  EXPECT_LE(r.e2e_p50_ms, r.e2e_p95_ms);
  EXPECT_LE(r.e2e_p95_ms, r.e2e_p99_ms);
  EXPECT_DOUBLE_EQ(r.offered_rps, lopts.offered_rps);
}

TEST(LoadgenTest, BatchFractionRoutesArrivalsWithoutLosingAny) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  spec.seed = 61;
  const auto net = nn::make_lenet5(spec);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  BatchExecutor exec(compiled, 1);

  Tensor sample(Shape{1, 1, 16, 16});
  Rng rng(62);
  sample.fill_uniform(rng, 0.0F, 1.0F);

  LoadgenOptions lopts;
  lopts.offered_rps = 1000.0;
  lopts.requests = 16;
  lopts.seed = 5;
  lopts.batch_fraction = 0.5;  // mixed classes share one executor
  const LoadgenResult r = run_open_loop(exec, sample, lopts);
  EXPECT_EQ(r.completed + r.shed, r.offered);
  EXPECT_EQ(r.shed, 0);  // no SLO configured, nothing may be shed
}

}  // namespace
}  // namespace ndsnn::serve
