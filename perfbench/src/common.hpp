// Shared helpers of the benchmark driver: statistics, open-loop
// schedules, metric output, benchmark-side tracing, memory and roofline
// probes. Nothing here calls into the system under test except the
// runtime::trace phase recorder, which the traced run switches on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;  ///< run_seconds of BENCHMARK.json
  bool trace = false;
};

/// Parse `--workload W --seed N --seconds S --trace 0|1`. Throws
/// std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

// ------------------------------------------------------------ statistics

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// A latency sample set summarised as a median and a tail percentile,
/// with the count both come from.
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  ///< the quantile `tail` reports
};

/// Summarise with the tail at `tail_q` (checked to leave ten samples
/// beyond it; throws std::runtime_error otherwise).
[[nodiscard]] LatencySummary summarize(const std::vector<double>& samples, double tail_q);

/// Events per second over bursts that each start at 0 (values are event
/// times in ms from the burst's start): all events over the sum of the
/// bursts' spans, each ending at its last event; 0 when there are none.
/// A pooled rate, not a median over bursts: on a shared VM a burst's
/// rate took one of two levels, and a median flipped between them.
[[nodiscard]] double pooled_rate(const std::vector<std::vector<double>>& bursts_ms);

// ------------------------------------------------------------- schedules

/// Open-loop Poisson arrival offsets (ms from the schedule start) of rate
/// `rps` over `duration_ms`, deterministic in `seed` and independent of
/// the library's RNGs, so program changes cannot move the load.
[[nodiscard]] std::vector<double> poisson_schedule_ms(double rps, double duration_ms,
                                                      uint64_t seed);

/// Seed mixer (splitmix64 finaliser) so sub-streams of one --seed differ.
[[nodiscard]] uint64_t mix_seed(uint64_t seed, uint64_t stream);

// ------------------------------------------------------------ the result

/// Names are [A-Za-z0-9_.-]+, start with a letter or digit, <= 64 chars.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Shortest round-trip decimal text of a finite double.
[[nodiscard]] std::string format_number(double v);

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed correctness check (printed to stderr, marks the run
  /// incorrect).
  void fail(const std::string& why);

  int64_t attempted = 0;
  int64_t failed = 0;

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::string json() const;
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> failures_;
};

// --------------------------------------------------------------- tracing

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Benchmark-side span recorder: spans around the calls the benchmark
/// makes into each layer, kept in memory and written at exit. Disabled
/// (every call a no-op) unless enable() was called.
class Tracer {
 public:
  struct Span {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    int64_t id = 0;
    int64_t parent = 0;  ///< 0 = root
    int64_t request = 0; ///< spans of one operation share this id
    uint32_t tid = 0;
  };

  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Start a span; returns its id (0 when disabled).
  int64_t begin(const std::string& name, int64_t parent, int64_t request);
  void end(int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Self time (duration minus the time of its direct children) summed
  /// per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Total duration summed per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> total_ms() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int64_t, std::size_t> open_;
  int64_t next_id_ = 1;
};

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, int64_t parent = 0, int64_t request = 0)
      : id_(Tracer::instance().begin(name, parent, request)) {}
  ~ScopedSpan() { Tracer::instance().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// Print the per-span self-time table to stderr and write the Chrome
/// trace (runtime::trace::chrome_json of the runtime's spans and these)
/// under .bench_out/ in the working directory.
void finish_trace(const std::string& workload, uint64_t seed);

// -------------------------------------------------------------- machine

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// In-process roofline probes, measured once per traced run.
struct Roofline {
  double copy_gbps = 0.0;  ///< memcpy bandwidth, 256 KiB buffers (read + write)
  double mac_gmacs = 0.0;  ///< fp32 multiply-adds per ns, one core
};
[[nodiscard]] Roofline measure_roofline();

}  // namespace perfbench
