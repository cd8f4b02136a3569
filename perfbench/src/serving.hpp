// Pieces shared by the two socket workloads: the in-process Server ->
// ModelRegistry -> BatchExecutor stack at product defaults, a connection
// guard, the open-loop load generator, the timed sub-run loop and its
// end-to-end report, the traced run's shared reports (tracing overhead,
// executor statistics, wire codec), the per-op plan walk behind the
// runtime.op.* metrics, and output checks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "nn/network.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/compiled_network.hpp"
#include "serve/model_registry.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Server -> ModelRegistry -> BatchExecutor over one model, with the
/// product defaults: fp32 weights, coalescing off, autotune off, serial
/// plan, and serve_sparse's default of kExecutorThreads executor workers.
/// The registry compiles `net` when it loads it, inside set-up. Members
/// are destroyed server first.
class ServeStack {
 public:
  ServeStack(const ndsnn::nn::SpikingNetwork& net, const std::string& model);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  [[nodiscard]] uint16_t port() const { return server_->port(); }
  [[nodiscard]] ndsnn::runtime::ExecutorStats executor_stats();

 private:
  std::string model_;
  std::unique_ptr<ndsnn::serve::ModelRegistry> registry_;
  std::unique_ptr<ndsnn::serve::Server> server_;
};

/// Owns one client socket.
class Connection {
 public:
  explicit Connection(uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

/// Latency charged to an operation that failed: it missed any limit.
constexpr double kFailedMs = 1e6;

/// Requests (or steps) sent and answered correctly on a blocking
/// connection.
struct ClientLog {
  int64_t sent = 0;
  int64_t ok = 0;
};

/// Counts and latencies of one open-loop phase.
struct Tally {
  int64_t sent = 0;
  int64_t ok = 0;
  std::vector<double> lat_ms;
  std::vector<double> lag_ms;
};

/// One operation of an open-loop schedule: due time (ms from the phase
/// start), the connection it goes out on, and the caller's item index.
struct Planned {
  double due_ms = 0.0;
  int conn = 0;
  int64_t item = 0;
};

/// What became of one planned operation.
struct Outcome {
  double lat_ms = kFailedMs;  ///< from the due time to the response
  double lag_ms = 0.0;        ///< how late the generator sent it
  bool ok = false;
};

using FrameEncoder = std::function<std::vector<uint8_t>(int64_t item)>;
using ResponseCheck = std::function<bool(int64_t item, const ndsnn::serve::ResponseFrame&)>;

/// Open-loop driver: one sender thread sends every planned frame at its
/// due time, one receiver thread polls all connections and matches
/// responses FIFO per connection. Two threads plus the connections stay
/// within the CPU count. With `window` 0 a frame goes out at its due
/// time whatever is outstanding (requests pipeline on their connection).
/// With `window` > 0 a frame also waits until its connection has fewer
/// than `window` frames outstanding: the server still always has the
/// next frame queued, and one connection's full send buffer cannot hold
/// back the sender's frames for another. `plan` must be sorted by due
/// time; `check` runs on the receiver thread only. With `span`, each
/// operation gets a benchmark span from send to response.
[[nodiscard]] std::vector<Outcome> open_loop(const std::vector<int>& fds,
                                             const std::vector<Planned>& plan,
                                             const FrameEncoder& encode,
                                             const ResponseCheck& check, std::size_t window,
                                             bool span);

/// Append `t`'s counts and samples to `into`.
void merge(Tally& into, const Tally& t);

/// Outcomes of one phase merged into a Tally. Sent/ok/failed go to
/// stderr, and a not-ok operation fails the run.
[[nodiscard]] Tally tally(const std::vector<Outcome>& outcomes, const std::string& phase,
                          Result& result);

/// Completions per second of phases whose operations were all due at
/// once (so each latency is a completion time): pooled_rate of their ok
/// completions.
[[nodiscard]] double capacity_rate(const std::vector<Tally>& bursts);

/// Executor workers: serve_sparse's default (--threads 4).
constexpr int64_t kExecutorThreads = 4;
/// Connections (one stream each in stream_events_tcp) of the timed
/// phases. One: on a shared 4-vCPU box, with two the paced figures of a
/// run shifted by 30-50% from one stack start to the next (with one by
/// ~5%), and the rate of a burst moved between about one and two
/// connections' worth in states that held for seconds (two threads
/// computing at once is what other tenants of the host slow first),
/// where one connection's rate stayed within ~12%.
constexpr int kClients = 1;
/// Connections of the traced run's parallel burst, the phase that keeps
/// more than one request (or stream step) in the executor at once: the
/// server answers each connection's frames one at a time. Client threads
/// plus connections stay within the CPU count (open_loop: sender +
/// receiver + 2 connections).
constexpr int kParallelClients = 2;
/// Frames outstanding per connection in a capacity burst (open_loop's
/// `window`): the server always has the next frame queued, the sender
/// does not run far ahead of it, and with two connections one
/// connection's full send buffer cannot hold back the other's frames.
constexpr std::size_t kCapacityWindow = 2;

/// A timed socket run is kSubRuns sub-runs, each on a freshly built
/// stack (new threads, new placement on the CPUs), and reports the
/// median over them, so one sub-run hit by a burst of noise from outside
/// the process does not set the figure. On a shared 4-vCPU box a single
/// stack's figures shifted from one start to the next while staying
/// flat within it.
constexpr int kSubRuns = 4;
/// Share of a sub-run spent in the nominal (paced) phase; capacity
/// bursts take the rest.
constexpr double kNominalShare = 0.75;
/// Capacity bursts per sub-run, each after one kBursts-th of the nominal
/// phase: 16 short bursts spread over the run sample more of the host's
/// slow swings than 4 long ones.
constexpr int kBursts = 4;
/// The tail percentile: p80. On a shared 4-vCPU box, over the same ten
/// serve runs the spread between runs (quartile distance / median) was
/// 0.064 for p50, 0.059 for p80, 0.149 for p90 and 0.252 for p95; in
/// two other ten-run sets the p90 of serve read 0.54 and 0.60.
constexpr double kTailQ = 0.8;

/// What one socket sub-run measured.
struct SubRun {
  double setup_s = 0.0;      ///< stack build, reference outputs and warm-up
  Tally nominal;             ///< paced phase: the latencies
  std::vector<Tally> bursts; ///< capacity bursts (everything due at once): the rate
};

/// The timed run of a socket workload: `sub_run(r, sub_ms)` kSubRuns
/// times, each building its own stack and spending about sub_ms in its
/// phases. Reports setup_s, p50_ms and tail_ms as medians over the
/// sub-runs, throughput_per_s as the capacity_rate of all their bursts,
/// plus peak_rss_mb and ok_frac.
void timed_sub_runs(const Args& args, const std::string& what,
                    const std::function<SubRun(int r, double sub_ms)>& sub_run, Result& result);

/// The tracing overhead: `block(pair, span)` four times, untraced and
/// traced in turn (both blocks of a pair on one schedule, so drift of
/// the host cancels out), with the benchmark's and the runtime's spans
/// on for the traced blocks. Reports trace.overhead_frac (median
/// latency) and loadgen.lag_p99_ms (untraced blocks); returns what the
/// blocks sent and got answered correctly.
[[nodiscard]] ClientLog traced_blocks(const std::function<Tally(int pair, bool span)>& block,
                                      Result& result);

/// Report the runtime.executor.* metrics.
void report_executor(const ndsnn::runtime::ExecutorStats& st, Result& result);

/// One encode + decode of a workload's request and response frames.
struct CodecRound {
  std::size_t bytes = 0;  ///< both frames, length prefixes included
  bool same = false;      ///< decoding gave back the encoded tensors
};

/// Time `round(i)` for i < n (the bitwise compare included) and report
/// serve.wire.codec_us and serve.wire.frame_bytes per round. Returns
/// codec_us.
double report_codec(int64_t n, const std::function<CodecRound(int64_t i)>& round,
                    Result& result);

[[nodiscard]] bool bitwise_equal(const ndsnn::tensor::Tensor& a, const ndsnn::tensor::Tensor& b);

/// Coarse op kind ("conv", "linear", "bn", "lif", "pool", "reshape") of
/// an OpReport kind such as "csr-conv".
[[nodiscard]] std::string op_kind(const std::string& report_kind);

/// Per-kind totals of one walk over plan_ir().ops, computed from the
/// tensor sizes each op saw and its OpReport.
struct OpWalk {
  std::map<std::string, double> us;     ///< measured op time
  std::map<std::string, double> macs;   ///< nnz-weighted multiply-adds
  std::map<std::string, double> bytes;  ///< input + output + weight bytes
};

/// MACs and bytes of one op application, input `in` -> output `out`.
void op_cost(const ndsnn::runtime::OpReport& report, const ndsnn::tensor::Tensor& in,
             const ndsnn::tensor::Tensor& out, double* macs, double* bytes);

/// Report runtime.op.{self_us,share,macs,bytes,bound_frac}.<kind> from a
/// walk summed over `calls` calls (values are per call).
void report_op_walk(const OpWalk& walk, double calls, const Roofline& roof, Result& result);

/// Sum the runtime::trace "phase" spans recorded so far per name and
/// report runtime.phase.us.<phase> per call.
void report_phases(double calls, Result& result);

}  // namespace perfbench
