// Serving load bench: open-loop Poisson arrivals against the
// SLO-aware BatchExecutor — the regression gate for the queueing layer.
//
//   ./bench/serving_load [--threads 4] [--requests 150] [--slo-ms 0]
//                        [--seed 42] [--json out.json]
//
// Two sweeps, both on a small masked LeNet plan (this bench measures
// scheduling, not kernels; single-sample requests are the serving
// worst case):
//
//   1. fixed_load — the same offered rate (60% of one worker's
//      measured saturation throughput, so even one worker can keep up)
//      replayed against 1, 2 and 4 request workers.
//      On a healthy scheduler, p50 stays flat or falls as workers are
//      added; the pre-PR-7 pop-and-hold FIFO *inverted* this curve
//      (BENCH_sparse_inference.json: p50 3.3 ms -> 14.1 ms from 1 to 4
//      workers). tools/check_bench_regression.py gates
//      p50@4w <= 1.5 x p50@1w on multi-core runners.
//
//   2. slo_sweep — offered load at 0.5x / 0.8x / 1.5x of the full
//      pool's saturation with an SLO budget set (--slo-ms, default
//      8 x calibrated service time): below saturation admission control
//      should shed ~nothing and admitted p99 should hold the budget;
//      past saturation it must shed instead of letting every request
//      time out.
//
// The JSON carries `cores` so the checker only enforces thread-scaling
// gates where they mean something (a 1-core container cannot speed up
// with workers).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "nn/models/zoo.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/compiled_network.hpp"
#include "serve/loadgen.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using ndsnn::runtime::BatchExecutor;
using ndsnn::runtime::CompiledNetwork;
using ndsnn::runtime::ExecutorOptions;
using ndsnn::serve::LoadgenOptions;
using ndsnn::serve::LoadgenResult;
using ndsnn::tensor::Rng;
using ndsnn::tensor::Shape;
using ndsnn::tensor::Tensor;

CompiledNetwork make_plan(uint64_t seed) {
  ndsnn::nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  spec.seed = seed;
  const auto net = ndsnn::nn::make_lenet5(spec);
  Rng rng(seed + 1);
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(static_cast<double>(p.value->numel()) * 0.05);
    const ndsnn::sparse::Mask mask(p.value->shape(), active, rng);
    mask.apply(*p.value);
  }
  return CompiledNetwork::compile(*net);
}

void emit_point(ndsnn::util::JsonWriter& json, const LoadgenResult& r, int workers,
                double load_factor = 0.0, double slo_ms = 0.0) {
  json.begin_object();
  json.kv("workers", workers);
  if (load_factor > 0.0) json.kv("load_factor", load_factor);
  if (slo_ms > 0.0) json.kv("slo_ms", slo_ms);
  json.kv("offered_rps", r.offered_rps);
  json.kv("achieved_rps", r.achieved_rps);
  json.kv("offered", r.offered);
  json.kv("completed", r.completed);
  json.kv("shed", r.shed);
  if (r.failed > 0) json.kv("failed", r.failed);
  json.kv("shed_rate", r.shed_rate);
  json.kv("slo_violations", r.slo_violations);
  json.kv("violation_rate", r.violation_rate);
  json.kv("e2e_p50_ms", r.e2e_p50_ms);
  json.kv("e2e_p95_ms", r.e2e_p95_ms);
  json.kv("e2e_p99_ms", r.e2e_p99_ms);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const ndsnn::util::Cli cli(argc, argv);
  const int threads = cli.get_int("--threads", 4);
  const int requests = cli.get_int("--requests", 150);
  const double slo_override = cli.get_double("--slo-ms", 0.0);
  const auto seed = static_cast<uint64_t>(cli.get_int("--seed", 42));
  const std::string json_path = cli.get_string("--json", "");

  const CompiledNetwork plan = make_plan(seed);
  Rng rng(seed + 17);
  // 8 rows per request: pushes per-request service time to a fraction
  // of a millisecond even on a small plan, so offered-rate pacing and
  // SLO budgets sit well above OS timer jitter. (Sub-0.1 ms requests
  // made the whole bench resolution-bound.)
  Tensor sample(Shape{8, 1, 16, 16});
  sample.fill_uniform(rng, 0.0F, 1.0F);

  // Calibrate per-request service time on a warm single worker; every
  // offered rate below is expressed against this measurement so the
  // bench self-scales to whatever box it runs on. The SLO and all three
  // load points derive from this one number, so it is the median of
  // several timed blocks rather than one mean that a single slow
  // stretch on a shared box can drag up. Each block is submitted whole
  // and then awaited, so the worker stays busy as it does under load
  // (one-at-a-time round trips also time the worker's wake-up).
  double service_ms = 0.0;
  {
    BatchExecutor warm(plan, 1);
    for (int i = 0; i < 4; ++i) (void)warm.submit(sample).get();
    constexpr int kBlocks = 7;
    constexpr int kPerBlock = 10;
    std::vector<double> block_ms;
    for (int b = 0; b < kBlocks; ++b) {
      std::vector<std::future<Tensor>> block;
      const ndsnn::util::Stopwatch sw;
      for (int i = 0; i < kPerBlock; ++i) block.push_back(warm.submit(sample));
      for (auto& f : block) (void)f.get();
      block_ms.push_back(sw.millis() / kPerBlock);
    }
    std::nth_element(block_ms.begin(), block_ms.begin() + kBlocks / 2, block_ms.end());
    service_ms = block_ms[kBlocks / 2];
  }
  const double sat_rps_1w = 1000.0 / service_ms;  // one worker's ceiling
  const double slo_ms = slo_override > 0.0 ? slo_override : 8.0 * service_ms;
  const auto cores = static_cast<int64_t>(std::thread::hardware_concurrency());

  std::printf("serving load bench: service %.2f ms/request, 1-worker saturation %.0f rps, "
              "slo %.1f ms, %lld cores\n",
              service_ms, sat_rps_1w, slo_ms, static_cast<long long>(cores));

  ndsnn::util::JsonWriter json;
  json.begin_object();
  json.kv("bench", "serving_load");
  json.kv("cores", cores);
  json.kv("threads", threads);
  json.kv("requests", requests);
  json.kv("service_ms", service_ms);
  json.kv("sat_rps_1w", sat_rps_1w);
  json.kv("slo_ms", slo_ms);
  json.key("serving").begin_object();

  // --- Sweep 1: fixed offered load, worker count 1 -> threads. ---
  const double fixed_rps = 0.6 * sat_rps_1w;
  std::printf("\nfixed offered load %.0f rps (0.6 x 1-worker saturation):\n", fixed_rps);
  ndsnn::util::Table fixed({"workers", "offered rps", "achieved", "p50 ms", "p95 ms",
                            "p99 ms"});
  json.key("fixed_load").begin_array();
  double p50_1w = 0.0, p50_max_w = 0.0;
  for (int w = 1; w <= threads; w *= 2) {
    BatchExecutor exec(plan, w);
    (void)exec.submit(sample).get();  // warm this pool
    LoadgenOptions lopts;
    lopts.offered_rps = fixed_rps;
    lopts.requests = requests;
    lopts.seed = seed;
    const LoadgenResult r = ndsnn::serve::run_open_loop(exec, sample, lopts);
    if (w == 1) p50_1w = r.e2e_p50_ms;
    p50_max_w = r.e2e_p50_ms;
    fixed.add_row({std::to_string(w), ndsnn::util::fmt(r.offered_rps, 0),
                   ndsnn::util::fmt(r.achieved_rps, 0), ndsnn::util::fmt(r.e2e_p50_ms, 2),
                   ndsnn::util::fmt(r.e2e_p95_ms, 2), ndsnn::util::fmt(r.e2e_p99_ms, 2)});
    emit_point(json, r, w);
  }
  json.end_array();
  fixed.print();
  const double scaling = p50_1w > 0.0 ? p50_max_w / p50_1w : 0.0;
  std::printf("p50 at %d workers / p50 at 1 worker: %.2fx %s\n", threads, scaling,
              cores >= 4 ? (scaling <= 1.5 ? "(<= 1.5x gate met)" : "(gate FAILED)")
                         : "(informational: < 4 cores)");
  json.kv("p50_scaling", scaling);

  // --- Sweep 2: SLO + admission control across the saturation knee. ---
  const double sat_rps_pool = sat_rps_1w * std::max(1, std::min(threads, static_cast<int>(cores)));
  std::printf("\nSLO sweep at %.1f ms budget (pool saturation ~%.0f rps):\n", slo_ms,
              sat_rps_pool);
  ndsnn::util::Table slo_table({"load", "offered rps", "p99 ms", "shed rate",
                                "violation rate"});
  json.key("slo_sweep").begin_array();
  for (const double factor : {0.5, 0.8, 1.5}) {
    ExecutorOptions eopts;
    eopts.slo_ms = slo_ms;
    BatchExecutor exec(plan, threads, eopts);
    (void)exec.submit(sample).get();
    LoadgenOptions lopts;
    lopts.offered_rps = factor * sat_rps_pool;
    lopts.requests = requests;
    lopts.seed = seed + static_cast<uint64_t>(factor * 100);
    const LoadgenResult r = ndsnn::serve::run_open_loop(exec, sample, lopts);
    slo_table.add_row({ndsnn::util::fmt(factor, 1) + "x",
                       ndsnn::util::fmt(r.offered_rps, 0),
                       ndsnn::util::fmt(r.e2e_p99_ms, 2), ndsnn::util::fmt(r.shed_rate, 3),
                       ndsnn::util::fmt(r.violation_rate, 3)});
    emit_point(json, r, threads, factor, slo_ms);
  }
  json.end_array();
  slo_table.print();

  json.end_object();  // serving
  json.end_object();
  if (!json_path.empty()) {
    json.write_file(json_path);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
