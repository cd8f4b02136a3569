// NDSNN benchmark driver: runs one named workload from a seed and prints
// one JSON result line (see perfbench/README.md).
//
//   perfbench --workload train_ndsnn_vgg16|serve_oneshot_tcp|stream_events_tcp
//             --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with benchmark-side spans and the runtime's phase spans on and
// prints the per-layer metrics instead.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "metric_names.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
    perfbench::Result result;
    if (args.workload == "train_ndsnn_vgg16") {
      perfbench::run_train(args, result);
    } else if (args.workload == "serve_oneshot_tcp") {
      perfbench::run_serve(args, result);
    } else if (args.workload == "stream_events_tcp") {
      perfbench::run_stream(args, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    const auto declared =
        args.trace ? perfbench::per_layer_metrics() : perfbench::kEndToEndMetrics;
    if (args.trace) {
      // Every traced run prints every per-layer metric; layers this
      // workload never calls read 0.
      for (const auto& m : declared) {
        if (result.metrics().count(m.name) == 0) result.metric(m.name, 0.0, m.unit);
      }
      perfbench::finish_trace(args.workload, args.seed);
    }
    if (result.metrics().size() != declared.size()) {
      throw std::logic_error("workload printed a metric BENCHMARK.json does not declare");
    }
    for (const auto& m : declared) {
      const auto it = result.metrics().find(m.name);
      if (it == result.metrics().end() || it->second.second != m.unit) {
        throw std::logic_error("metric " + m.name + " missing or not in " + m.unit);
      }
    }
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
