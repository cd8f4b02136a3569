// Serving demo: train a sparse SNN with NDSNN, optionally project it
// onto an N:M structured pattern for deployment, compile it to sparse
// kernels (CSR for sparse layers, unstructured and N:M-projected alike;
// event-driven gather behind low-rate spike trains — the compiler's
// heuristics pick per layer), and serve classification requests through
// the multi-threaded BatchExecutor, reporting p50/p95/p99 latency.
//
//   ./examples/serve_sparse [--sparsity 0.95] [--epochs 4] [--threads 4]
//                           [--requests 32] [--batch 8] [--nm 2:4]
//                           [--activation auto|dense|event]
//                           [--precision auto|fp32|int8]
//                           [--kernel-tier auto|scalar|avx2]
//                           [--slo-ms 0]
//                           [--save-checkpoint model.ndck]
//                           [--checkpoint model.ndck]
//                           [--trace out.json] [--metrics-every 8]
//                           [--profile]
//                           [--listen PORT] [--models name=a.ndck,name2=b.ndck]
//                           [--mem-budget-mb 0] [--serve-seconds 0]
//                           [--conn-timeout-ms 0] [--drain-ms 5000]
//                           [--metrics-dump metrics.json]
//
// --threads is the number of executor request workers; each runs the
// plan serially on its own thread, one request per pass.
//
// With --save-checkpoint the trained network is written as an
// architecture-tagged checkpoint; with --checkpoint the training stage
// is skipped entirely and the plan comes straight from
// CompiledNetwork::from_checkpoint — the checkpoint-driven serving path
// (no training network is ever instantiated by this binary).
//
// --listen PORT switches from the in-process CLI demo loop to the real
// socket front-end: a blocking TCP server (src/serve/) answering
// length-prefixed binary frames (README "Serving"). Besides v1 one-shot
// requests the server speaks the wire v2 streaming extension: a client
// opens a stream on its connection, feeds one timestep frame at a time
// through a persistent StreamSession and gets per-step logits back
// (README "Streaming inference"). Models come from
// --models name=checkpoint pairs (or --checkpoint as model "default"),
// live behind a ModelRegistry whose --mem-budget-mb budgeter
// requantises (int8) then evicts cold plans, and are scheduled with
// --slo-ms admission control. --serve-seconds bounds the run (0 =
// until stdin closes). Port 0 asks the kernel for a free port and
// prints it. Without --listen, the CLI loop below is the fallback.
//
// --precision selects the stored bit width of the sparse weight value
// planes (default auto: per layer, int8 when its measured quantisation
// error stays bounded, else fp32). An explicit int8 with
// --save-checkpoint writes a v3 checkpoint whose
// quantisation record (per-layer precision + per-row scales) a later
// `--checkpoint --precision auto` serve reproduces exactly.
//
// Observability (README "Observability" section): --trace out.json
// records every op run and queue wait as Chrome trace-event JSON
// (open at chrome://tracing or https://ui.perfetto.dev);
// --metrics-every N prints a serving stats line every N completed
// requests plus a final metrics-registry dump; --profile prints the
// measured per-op latency/firing-rate table at the end. Any of the three enables plan profiling; traced outputs are
// bitwise identical to untraced ones.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/nm_projection.hpp"
#include "nn/checkpoint.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/trace.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "sparse/structured.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "util/cli.hpp"
#include "util/cpuinfo.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it and runs
/// the graceful drain. sig_atomic_t + no locks: handler-safe.
volatile std::sig_atomic_t g_shutdown_signal = 0;

void on_shutdown_signal(int sig) { g_shutdown_signal = sig; }

ndsnn::runtime::ActivationMode parse_activation(const std::string& s) {
  if (s == "dense") return ndsnn::runtime::ActivationMode::kDense;
  if (s == "event") return ndsnn::runtime::ActivationMode::kEvent;
  return ndsnn::runtime::ActivationMode::kAuto;
}

/// Observability knobs for serve() — see the header comment.
struct ServeTelemetry {
  std::string trace_path;  ///< non-empty: record + export a Chrome trace
  int metrics_every = 0;   ///< > 0: stats line every N completed requests
  bool profile = false;    ///< print the per-op profile table at the end
  [[nodiscard]] bool any() const {
    return !trace_path.empty() || metrics_every > 0 || profile;
  }
};

void print_profile(const ndsnn::runtime::CompiledNetwork& plan) {
  std::printf("\nper-op profile (%lld plan runs):\n",
              static_cast<long long>(plan.profiled_executes()));
  ndsnn::util::Table table({"op", "kind", "runs", "mean us", "p50 us", "p95 us", "rate"});
  for (const auto& op : plan.profile()) {
    table.add_row({op.layer, op.kind, std::to_string(op.runs),
                   ndsnn::util::fmt(op.mean_us, 1), ndsnn::util::fmt(op.p50_us, 1),
                   ndsnn::util::fmt(op.p95_us, 1),
                   op.ema_rate >= 0 ? ndsnn::util::fmt(op.ema_rate, 3) : "-"});
  }
  table.print();
}

void serve(const ndsnn::runtime::CompiledNetwork& plan,
           const std::vector<ndsnn::tensor::Tensor>& requests,
           const std::vector<std::vector<int64_t>>& labels, int threads, int batch_size,
           const ndsnn::runtime::ExecutorOptions& exec_opts, const ServeTelemetry& tel) {
  namespace trace = ndsnn::runtime::trace;
  std::printf("serving %zu requests (batch %d) on %d request worker(s)...\n",
              requests.size(), batch_size, threads);
  if (tel.any()) plan.enable_profiling(true);
  if (!tel.trace_path.empty()) {
    trace::reset();
    trace::set_enabled(true);
  }
  ndsnn::runtime::BatchExecutor exec(plan, threads, exec_opts);
  const ndsnn::util::Stopwatch sw;
  // Submit everything up front (the run_all pattern), then collect in
  // order so --metrics-every can narrate progress between completions.
  std::vector<std::future<ndsnn::tensor::Tensor>> futures;
  futures.reserve(requests.size());
  for (const auto& batch : requests) futures.push_back(exec.submit(batch));
  std::vector<ndsnn::tensor::Tensor> logits;
  logits.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    logits.push_back(futures[i].get());
    if (tel.metrics_every > 0 && (i + 1) % static_cast<std::size_t>(tel.metrics_every) == 0) {
      const auto s = exec.stats();
      std::printf(
          "  [%zu/%zu] service p50 %.2f ms p95 %.2f | queue p50 %.2f ms p95 %.2f "
          "depth %lld | utilization %.0f%%\n",
          i + 1, futures.size(), s.p50_ms, s.p95_ms, s.queue_p50_ms, s.queue_p95_ms,
          static_cast<long long>(s.queue_depth), 100.0 * s.worker_utilization);
    }
  }
  const double ms = sw.millis();

  int64_t correct = 0, total = 0;
  for (std::size_t r = 0; r < logits.size(); ++r) {
    const auto pred = ndsnn::tensor::argmax_rows(logits[r]);
    for (std::size_t b = 0; b < pred.size(); ++b) {
      if (!labels.empty()) correct += pred[b] == labels[r][b];
      ++total;
    }
  }
  const ndsnn::runtime::ExecutorStats stats = exec.stats();
  std::printf("served %lld samples in %.1f ms (%.0f samples/s)\n",
              static_cast<long long>(total), ms, 1e3 * static_cast<double>(total) / ms);
  std::printf("service latency: mean %.2f ms, p50 %.2f, p95 %.2f, p99 %.2f, max %.2f\n",
              stats.mean_ms, stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.max_ms);
  std::printf(
      "queue wait: mean %.2f ms, p50 %.2f, p95 %.2f (end-to-end = wait + service); "
      "worker utilization %.0f%%\n",
      stats.queue_mean_ms, stats.queue_p50_ms, stats.queue_p95_ms,
      100.0 * stats.worker_utilization);
  if (!labels.empty()) {
    std::printf("accuracy %.2f%%\n",
                100.0 * static_cast<double>(correct) / static_cast<double>(total));
  }
  if (tel.any()) print_profile(plan);
  if (!tel.trace_path.empty()) {
    trace::set_enabled(false);
    trace::write_chrome_file(tel.trace_path);
    std::printf("\nwrote %zu trace spans to %s (%lld dropped); open at chrome://tracing "
                "or https://ui.perfetto.dev\n",
                trace::snapshot().size(), tel.trace_path.c_str(),
                static_cast<long long>(trace::dropped()));
  }
  if (tel.metrics_every > 0) {
    std::printf("\nmetrics registry:\n%s",
                ndsnn::util::MetricsRegistry::global().dump_text().c_str());
  }
}

}  // namespace

namespace {

/// --help text, grouped to mirror CompileOptions' nested structure
/// (QuantOptions / ExecOptions; BackendOptions has no flags here) so the
/// CLI surface and the API present the same mental model.
void print_help() {
  std::printf(
      "serve_sparse — train/load a sparse SNN and serve it\n"
      "\n"
      "quantisation options (runtime::QuantOptions):\n"
      "  --precision auto|fp32|int8              stored weight precision\n"
      "\n"
      "execution options (runtime::ExecOptions):\n"
      "  --activation auto|dense|event           activation representation\n"
      "  --kernel-tier auto|scalar|avx2          pin the SIMD dispatch tier\n"
      "\n"
      "executor / scheduling:\n"
      "  --threads N        request workers (default 4)\n"
      "  --slo-ms MS        admission-control latency target (0 = off)\n"
      "\n"
      "workload / training:\n"
      "  --sparsity F --epochs N --requests N --batch N --nm N:M\n"
      "  --save-checkpoint FILE | --checkpoint FILE\n"
      "\n"
      "serving front-end (--listen):\n"
      "  --listen PORT      TCP server (0 = kernel-picked port); wire v1\n"
      "                     one-shot requests and v2 streaming sessions\n"
      "                     (one open stream per connection)\n"
      "  --models name=a.ndck,name2=b.ndck   registry contents\n"
      "  --mem-budget-mb N  requantise/evict budget (0 = unlimited)\n"
      "  --serve-seconds N  bound the run (0 = until stdin closes)\n"
      "  --conn-timeout-ms N  per-connection socket deadline (0 = none)\n"
      "  --drain-ms N       SIGTERM/SIGINT graceful-drain deadline "
      "(default 5000)\n"
      "  --metrics-dump F   write the metrics registry as JSON at exit\n"
      "\n"
      "observability:\n"
      "  --trace out.json --metrics-every N --profile\n");
}

}  // namespace

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);
  if (cli.has_flag("--help")) {
    print_help();
    return 0;
  }
  const int threads = cli.get_int("--threads", 4);
  const int num_requests = cli.get_int("--requests", 32);
  const int batch_size = cli.get_int("--batch", 8);
  const std::string nm_spec = cli.get_string("--nm", "");
  const std::string checkpoint = cli.get_string("--checkpoint", "");
  const std::string save_checkpoint = cli.get_string("--save-checkpoint", "");

  ndsnn::runtime::CompileOptions opts;
  opts.activation_mode = parse_activation(cli.get_string("--activation", "auto"));
  const std::string precision_spec = cli.get_string("--precision", "auto");
  opts.weight_precision = ndsnn::runtime::parse_weight_precision(precision_spec);
  // --kernel-tier pins the SIMD dispatch tier (scalar|avx2|auto)
  // for reproducible serving across heterogeneous fleets.
  const std::string tier_spec = cli.get_string("--kernel-tier", "auto");
  if (!ndsnn::util::simd::parse(tier_spec, &opts.kernel_tier)) {
    std::fprintf(stderr, "unknown --kernel-tier '%s' (want scalar|avx2|auto)\n",
                 tier_spec.c_str());
    return 1;
  }

  ndsnn::runtime::ExecutorOptions exec_opts;
  exec_opts.slo_ms = cli.get_double("--slo-ms", 0.0);

  ServeTelemetry tel;
  tel.trace_path = cli.get_string("--trace", "");
  tel.metrics_every = cli.get_int("--metrics-every", 0);
  tel.profile = cli.has_flag("--profile");

  // Socket front-end: --listen replaces the demo loop with the real
  // TCP server over a ModelRegistry (see the header comment).
  const int listen_port = cli.get_int("--listen", -1);
  if (listen_port >= 0) {
    std::vector<std::pair<std::string, std::string>> models;
    std::string spec_list = cli.get_string("--models", "");
    while (!spec_list.empty()) {
      const std::size_t comma = spec_list.find(',');
      const std::string pair = spec_list.substr(0, comma);
      spec_list = comma == std::string::npos ? "" : spec_list.substr(comma + 1);
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
        std::fprintf(stderr, "--models entries must be name=checkpoint, got '%s'\n",
                     pair.c_str());
        return 1;
      }
      models.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    if (!checkpoint.empty()) models.emplace_back("default", checkpoint);
    if (models.empty()) {
      std::fprintf(stderr,
                   "--listen needs at least one model: --checkpoint file.ndck or "
                   "--models name=file.ndck[,name2=other.ndck]\n");
      return 1;
    }

    ndsnn::serve::RegistryOptions ropts;
    ropts.mem_budget_bytes =
        static_cast<int64_t>(cli.get_int("--mem-budget-mb", 0)) * (1 << 20);
    ropts.executor_threads = threads;
    ropts.executor = exec_opts;
    ndsnn::serve::ModelRegistry registry(ropts);
    for (const auto& [name, path] : models) {
      registry.add(
          name,
          [path](const ndsnn::runtime::CompileOptions& o) {
            return ndsnn::runtime::CompiledNetwork::from_checkpoint(path, o);
          },
          opts);
    }

    ndsnn::serve::ServerOptions sopts;
    sopts.port = static_cast<uint16_t>(listen_port);
    sopts.default_model = models.front().first;
    sopts.conn_timeout_ms = cli.get_int("--conn-timeout-ms", 0);
    const auto drain_ms =
        std::chrono::milliseconds(cli.get_int("--drain-ms", 5000));
    const std::string metrics_dump = cli.get_string("--metrics-dump", "");
    ndsnn::serve::Server server(registry, sopts);
    server.start();
    std::printf("listening on 127.0.0.1:%u — %zu model(s), default '%s', "
                "budget %lld MiB, slo %.1f ms\n",
                server.port(), models.size(), sopts.default_model.c_str(),
                static_cast<long long>(ropts.mem_budget_bytes >> 20), exec_opts.slo_ms);
    if (ndsnn::util::fault::FaultInjector::active()) {
      // Print the seed up front: reproducing a chaos failure needs it
      // (CONTRIBUTING "Reproducing a chaos-test failure").
      std::printf("fault injection ARMED (NDSNN_FAULTS), seed=%llu\n",
                  static_cast<unsigned long long>(
                      ndsnn::util::fault::FaultInjector::global().seed()));
    }
    // SIGTERM/SIGINT trigger the graceful drain below instead of
    // killing the process: in-flight work finishes (up to --drain-ms)
    // and the exit code reports whether everything settled.
    std::signal(SIGTERM, on_shutdown_signal);
    std::signal(SIGINT, on_shutdown_signal);
    const int serve_seconds = cli.get_int("--serve-seconds", 0);
    const auto serve_until = std::chrono::steady_clock::now() +
                             std::chrono::seconds(serve_seconds);
    // shared_ptr, not a stack flag: the watcher is detached at exit
    // (it may sit in getchar() forever) and must not touch a dead frame.
    auto stdin_closed = std::make_shared<std::atomic<bool>>(false);
    std::thread stdin_watch;
    if (serve_seconds <= 0) {
      // Foreground service: also exit when the operator closes stdin.
      // Watched from a side thread so the main loop stays free to poll
      // for signals (a blocking getchar() would delay drain by one
      // keypress).
      stdin_watch = std::thread([stdin_closed] {
        while (std::getchar() != EOF) {
        }
        stdin_closed->store(true);
      });
    }
    while (g_shutdown_signal == 0) {
      if (serve_seconds > 0) {
        if (std::chrono::steady_clock::now() >= serve_until) break;
      } else if (stdin_closed->load()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    bool settled = true;
    if (g_shutdown_signal != 0) {
      std::printf("signal %d: draining (deadline %lld ms)\n",
                  static_cast<int>(g_shutdown_signal),
                  static_cast<long long>(drain_ms.count()));
      settled = server.drain(drain_ms);
      if (!settled) {
        std::fprintf(stderr, "drain deadline expired: stragglers force-closed\n");
      }
    } else {
      server.stop();
    }
    if (stdin_watch.joinable()) stdin_watch.detach();  // blocked in getchar()
    std::printf("served %lld request(s) over %lld connection(s); "
                "%lld load(s), %lld requantisation(s), %lld eviction(s)\n",
                static_cast<long long>(server.requests_served()),
                static_cast<long long>(server.connections()),
                static_cast<long long>(registry.loads()),
                static_cast<long long>(registry.requantisations()),
                static_cast<long long>(registry.evictions()));
    if (ndsnn::util::fault::FaultInjector::active()) {
      std::printf("%s\n",
                  ndsnn::util::fault::FaultInjector::global().summary().c_str());
    }
    if (!metrics_dump.empty()) {
      ndsnn::util::JsonWriter json;
      ndsnn::util::MetricsRegistry::global().dump_json(json);
      json.write_file(metrics_dump);
      std::printf("metrics written to %s\n", metrics_dump.c_str());
    }
    return settled ? 0 : 1;
  }

  // Checkpoint-driven serving: no experiment, no training network —
  // the architecture record inside the checkpoint rebuilds everything.
  if (!checkpoint.empty()) {
    const auto meta = ndsnn::nn::read_checkpoint_meta_file(checkpoint);
    std::printf("serving %s from checkpoint %s (%lldpx, T=%lld)\n", meta.arch.c_str(),
                checkpoint.c_str(), static_cast<long long>(meta.spec.image_size),
                static_cast<long long>(meta.spec.timesteps));
    const auto plan = ndsnn::runtime::CompiledNetwork::from_checkpoint(checkpoint, opts);
    std::printf("%s\n", plan.summary().c_str());

    ndsnn::tensor::Rng rng(123);
    std::vector<ndsnn::tensor::Tensor> requests;
    for (int r = 0; r < num_requests; ++r) {
      ndsnn::tensor::Tensor batch(ndsnn::tensor::Shape{
          batch_size, meta.spec.in_channels, meta.spec.image_size, meta.spec.image_size});
      batch.fill_uniform(rng, 0.0F, 1.0F);
      requests.push_back(std::move(batch));
    }
    serve(plan, requests, {}, threads, batch_size, exec_opts, tel);
    return 0;
  }

  // 1. Train a sparse network (tiny synthetic run, like edge_deployment).
  ndsnn::core::ExperimentConfig cfg;
  cfg.arch = "lenet5";
  cfg.dataset = "cifar10";
  cfg.method = "ndsnn";
  cfg.sparsity = cli.get_double("--sparsity", 0.95);
  cfg.epochs = cli.get_int("--epochs", 8);
  cfg.train_samples = 320;
  cfg.test_samples = 128;
  cfg.data_scale = 0.5;
  cfg.timesteps = 2;
  cfg.learning_rate = 0.2;

  std::printf("training sparse SNN (target %.0f%% sparsity)...\n", 100.0 * cfg.sparsity);
  ndsnn::core::Experiment exp = ndsnn::core::build_experiment(cfg);
  ndsnn::core::Trainer trainer(*exp.network, *exp.method, *exp.train_set, *exp.test_set,
                               exp.trainer);
  const auto result = trainer.run();
  std::printf("trained: %.2f%% accuracy at %.1f%% sparsity\n\n", result.best_test_acc,
              100.0 * result.final_sparsity);

  // 2. (Optional) Deployment projection: snap the unstructured trained
  // mask onto an N:M pattern for structured-sparsity hardware. The
  // projected net still runs on the runtime's CSR kernels.
  if (!nm_spec.empty()) {
    const auto pattern = ndsnn::sparse::parse_nm(nm_spec);
    const auto report = ndsnn::core::project_network_nm(*exp.network, pattern);
    std::printf("projected onto %lld:%lld — mean |w| mass lost %.2f%%\n",
                static_cast<long long>(pattern.n), static_cast<long long>(pattern.m),
                100.0 * ndsnn::core::mean_projection_loss(report));
  }

  // 3. (Optional) Persist as an architecture-tagged checkpoint a later
  // `--checkpoint` run can serve without retraining. An explicit
  // quantised --precision makes it a v3 checkpoint carrying the
  // deployment's per-layer precision + per-row scales.
  if (!save_checkpoint.empty()) {
    const ndsnn::nn::CheckpointMeta meta{exp.arch, exp.model_spec};
    if (opts.weight_precision == ndsnn::runtime::WeightPrecision::kInt8) {
      ndsnn::nn::save_checkpoint_file(
          save_checkpoint, *exp.network, meta,
          ndsnn::nn::build_quant_record(*exp.network, ndsnn::sparse::Precision::kInt8));
      std::printf("saved v3 checkpoint (quant record: %s) to %s\n",
                  precision_spec.c_str(), save_checkpoint.c_str());
    } else {
      ndsnn::nn::save_checkpoint_file(save_checkpoint, *exp.network, meta);
      std::printf("saved checkpoint to %s\n", save_checkpoint.c_str());
    }
  }

  // 4. Compile the masked network into an immutable sparse inference
  // plan; the kernel heuristic lowers sparse layers (N:M-projected or
  // not) to CSR, the rest to dense GEMM, and spike-fed layers to the
  // event path (the training run recorded per-layer firing rates it
  // plans on).
  const auto plan = ndsnn::runtime::CompiledNetwork::compile(*exp.network, opts);
  std::printf("%s\n", plan.summary().c_str());

  // 5. Serve requests from the test distribution through a worker pool.
  std::vector<ndsnn::tensor::Tensor> requests;
  std::vector<std::vector<int64_t>> labels;
  for (int r = 0; r < num_requests; ++r) {
    std::vector<int64_t> batch_labels;
    const int64_t image = exp.test_set->image_size();
    ndsnn::tensor::Tensor batch(ndsnn::tensor::Shape{
        batch_size, exp.test_set->channels(), image, image});
    for (int b = 0; b < batch_size; ++b) {
      const auto sample = exp.test_set->get((r * batch_size + b) % exp.test_set->size());
      const int64_t numel = sample.image.numel();
      for (int64_t i = 0; i < numel; ++i) {
        batch.at(b * numel + i) = sample.image.at(i);
      }
      batch_labels.push_back(sample.label);
    }
    requests.push_back(std::move(batch));
    labels.push_back(std::move(batch_labels));
  }
  serve(plan, requests, labels, threads, batch_size, exec_opts, tel);
  return 0;
}
