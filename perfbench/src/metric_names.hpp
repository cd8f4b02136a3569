// The metric names the driver prints: every end-to-end metric on every
// timed run, every per-layer metric on every traced run (a layer a
// workload does not exercise reads 0). BENCHMARK.json must declare
// exactly these; tests/helpers_test.cpp checks it.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace perfbench {


/// Coarse op kinds of the compiled plan (OpReport::kind without the
/// backend prefix, so a lowering change does not rename a metric).
inline const std::array<std::string, 6> kOpKinds = {"conv", "linear", "bn",
                                                    "lif",  "pool",   "reshape"};
/// Training layer kinds (nn::Layer names).
inline const std::array<std::string, 5> kLayerKinds = {"conv", "bn", "lif", "pool", "linear"};
/// runtime::trace phase spans the ops record.
inline const std::array<std::string, 7> kPhases = {
    "im2col", "conv-gemm", "event-scatter", "event-gather",
    "bn-normalize", "lif-dynamics", "maxpool-events"};

struct MetricName {
  std::string name;
  std::string unit;
};

inline const std::vector<MetricName> kEndToEndMetrics = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},  {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"}, {"tail_ms", "ms"},      {"ok_frac", "fraction"}};

inline std::vector<MetricName> per_layer_metrics() {
  std::vector<MetricName> m = {
      // train
      {"data.batch_ms", "ms"}, {"opt.sgd_step_ms", "ms"}, {"core.before_step_ms", "ms"},
      {"core.mask_update_ms", "ms"}, {"core.mask_updates", "count"}, {"core.eval_ms", "ms"},
      {"core.train_loss", "nats"}, {"core.density", "fraction"}, {"core.cost_index", "fraction"},
      {"snn.spike_rate", "fraction"}, {"core.dense_time_ratio", "ratio"},
      // serve + stream
      {"runtime.plan.infer_ms", "ms"}, {"runtime.executor.queue_wait_p50_ms", "ms"},
      {"runtime.executor.queue_wait_p95_ms", "ms"}, {"runtime.executor.utilization", "fraction"},
      {"runtime.executor.shed", "count"}, {"runtime.executor.stream_steps", "count"},
      {"runtime.executor.backpressure_rejections", "count"},
      {"runtime.executor.parallel_per_s", "1/s"}, {"serve.wire.codec_us", "us"},
      {"serve.wire.frame_bytes", "bytes"}, {"serve.server.overhead_p50_ms", "ms"},
      {"runtime.stream.step_us.active", "us"}, {"runtime.stream.step_us.silent", "us"},
      {"runtime.stream.delta_skip_ratio", "fraction"}, {"loadgen.lag_p99_ms", "ms"},
      {"probe.copy_gbps", "GB/s"}, {"probe.mac_gmacs", "GMAC/s"},
      // all
      {"trace.overhead_frac", "fraction"}, {"trace.unaccounted_frac", "fraction"}};
  for (const auto& k : kLayerKinds) {
    m.push_back({"nn.fwd_ms." + k, "ms"});
    m.push_back({"nn.bwd_ms." + k, "ms"});
  }
  for (const auto& k : kOpKinds) {
    m.push_back({"runtime.op.self_us." + k, "us"});
    m.push_back({"runtime.op.share." + k, "fraction"});
    m.push_back({"runtime.op.step_us." + k, "us"});
    m.push_back({"runtime.op.macs." + k, "count"});
    m.push_back({"runtime.op.bytes." + k, "bytes"});
    m.push_back({"runtime.op.bound_frac." + k, "fraction"});
  }
  for (const auto& p : kPhases) m.push_back({"runtime.phase.us." + p, "us"});
  return m;
}

}  // namespace perfbench
