// serve_oneshot_tcp: wire-v1 one-shot requests over loopback TCP to an
// in-process Server -> ModelRegistry -> BatchExecutor (serve_sparse's
// defaults: 4 executor workers, fp32, coalescing off, autotune off,
// serial plan). The served model is the one serve_sparse trains: a
// LeNet-5 trained with NDSNN to 0.95 sparsity on synthetic CIFAR-10 at
// 16x16, compiled with the firing rates its training recorded. Each
// request is 8 rows of 3x16x16 from the same distribution.
//
// The model is trained once per process, before the sub-runs (as
// serve_sparse trains before it serves), so it is not part of setup_s.
// Each sub-run, after set-up and warm-up:
//   1. nominal: an open-loop Poisson schedule at kNominalRps (a fixed
//      absolute rate, never derived from a measurement) on one
//      connection, sent on time whatever is outstanding; each request is
//      timed from its scheduled send time, so a stall is charged to
//      every request behind it;
//   2. capacity: after each kBursts-th of the nominal phase, a burst of
//      kBurstRequests all due at once on one connection, kCapacityWindow
//      outstanding, so the server always has the next one queued; the
//      answered rate is throughput_per_s.
// The traced run adds a burst over kParallelClients connections, which
// keeps that many requests in the executor at once.
// Every response must be kOk and bitwise equal to CompiledNetwork::run
// on the same input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "runtime/trace.hpp"
#include "serve/wire.hpp"
#include "serving.hpp"
#include "snn/encoder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = ndsnn::core;
namespace serve = ndsnn::serve;
using ndsnn::tensor::Tensor;

constexpr int64_t kRows = 8;
constexpr int64_t kDistinct = 32;
constexpr int kWarmupRequests = 200;
/// ~4% of one connection's serial capacity, so the p90 lies below the
/// queueing knee: at 100 rps (~10%) about one request in ten waited
/// behind another and the p90 swung with that.
constexpr double kNominalRps = 40.0;
constexpr int64_t kBurstRequests = 500;
constexpr int kDirectCalls = 400;
const char* const kModel = "lenet5";

/// serve_sparse's training run, at its defaults.
core::ExperimentConfig model_config() {
  core::ExperimentConfig cfg;
  cfg.arch = "lenet5";
  cfg.dataset = "cifar10";
  cfg.method = "ndsnn";
  cfg.sparsity = 0.95;
  cfg.epochs = 8;
  cfg.train_samples = 320;
  cfg.test_samples = 128;
  cfg.data_scale = 0.5;
  cfg.timesteps = 2;
  cfg.learning_rate = 0.2;
  return cfg;
}

/// The served model: trained once per process. --seed never changes it.
core::Experiment train_model() {
  const auto t0 = Clock::now();
  core::Experiment exp = core::build_experiment(model_config());
  core::Trainer trainer(*exp.network, *exp.method, *exp.train_set, *exp.test_set, exp.trainer);
  const core::TrainResult r = trainer.run();
  if (r.final_sparsity < model_config().sparsity - 1e-3) {
    throw std::runtime_error("served model did not reach its target sparsity");
  }
  std::fprintf(stderr, "served model: trained in %.2f s, %.1f%% test accuracy at %.3f sparsity\n",
               ms_between(t0, Clock::now()) / 1000.0, r.final_test_acc, r.final_sparsity);
  return exp;
}

struct Inputs {
  std::vector<Tensor> batches;
  std::vector<Tensor> expected;  ///< CompiledNetwork::run of each batch
};

/// Request batches: fresh samples of the served model's data
/// distribution (its class prototypes), at an offset set by `seed` far
/// past the training and test samples.
Inputs make_inputs(uint64_t seed, const ndsnn::nn::SpikingNetwork& net) {
  const core::ExperimentConfig cfg = model_config();
  ndsnn::data::SyntheticSpec spec = ndsnn::data::synthetic_by_name(
      cfg.dataset, cfg.data_scale, kDistinct * kRows, cfg.seed);
  spec.sample_offset = (int64_t{1} << 32) + static_cast<int64_t>(mix_seed(seed, 11) >> 40) *
                                                kDistinct * kRows;
  const ndsnn::data::SyntheticVision ds(spec);
  Inputs in;
  for (int64_t k = 0; k < kDistinct; ++k) {
    std::vector<int64_t> idx;
    for (int64_t r = 0; r < kRows; ++r) idx.push_back(k * kRows + r);
    in.batches.push_back(ndsnn::data::make_batch(ds, idx).images);
  }
  const auto ref = ndsnn::runtime::CompiledNetwork::compile(net);
  for (const auto& b : in.batches) in.expected.push_back(ref.run(b));
  return in;
}

/// One request; returns true when answered kOk with the expected logits.
bool request(int fd, const Inputs& in, std::size_t k, ClientLog& log) {
  ++log.sent;
  const serve::ResponseFrame resp = serve::round_trip(fd, serve::RequestFrame{"", 0, in.batches[k]});
  if (resp.status != serve::Status::kOk || !bitwise_equal(resp.logits, in.expected[k])) {
    return false;
  }
  ++log.ok;
  return true;
}

/// Inputs and their reference outputs, the stack, and a warm-up of the
/// connection, executor workers and caches: the set-up of a sub-run.
std::unique_ptr<ServeStack> build_stack(const ndsnn::nn::SpikingNetwork& net, uint64_t seed,
                                        Inputs& in) {
  in = make_inputs(seed, net);
  auto stack = std::make_unique<ServeStack>(net, kModel);
  const Connection conn(stack->port());
  ClientLog warm;
  for (int i = 0; i < kWarmupRequests; ++i) (void)request(conn.fd(), in, i % kDistinct, warm);
  if (warm.ok != warm.sent) throw std::runtime_error("warm-up failed");
  return stack;
}

/// Send `plan` (items index the input batches) through open_loop on
/// `clients` fresh connections and check every response.
Tally run_plan(uint16_t port, const Inputs& in, int clients, std::size_t window,
               const std::vector<Planned>& plan, bool span, const std::string& phase,
               Result& result) {
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<int> fds;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<Connection>(port));
    fds.push_back(conns.back()->fd());
  }
  const auto outcomes = open_loop(
      fds, plan,
      [&](int64_t k) {
        return serve::encode_request(serve::RequestFrame{"", 0, in.batches[static_cast<std::size_t>(k)]});
      },
      [&](int64_t k, const serve::ResponseFrame& resp) {
        return resp.status == serve::Status::kOk &&
               bitwise_equal(resp.logits, in.expected[static_cast<std::size_t>(k)]);
      },
      window, span);
  return tally(outcomes, phase, result);
}

/// Open-loop phase at kNominalRps for `ms` on kClients connections.
Tally nominal_phase(uint16_t port, const Inputs& in, double ms, uint64_t seed, bool span,
                    const std::string& phase, Result& result) {
  std::vector<Planned> plan;
  for (const double due : poisson_schedule_ms(kNominalRps, ms, seed)) {
    const auto i = static_cast<int64_t>(plan.size());
    plan.push_back({due, static_cast<int>(i % kClients), i % kDistinct});
  }
  return run_plan(port, in, kClients, 0, plan, span, phase, result);
}

/// A capacity burst: kBurstRequests all due at once, dealt over
/// `clients` connections with kCapacityWindow outstanding on each.
Tally capacity_burst(uint16_t port, const Inputs& in, int clients, Result& result) {
  std::vector<Planned> plan;
  for (int64_t i = 0; i < kBurstRequests; ++i) {
    plan.push_back({0.0, static_cast<int>(i % clients), i % kDistinct});
  }
  return run_plan(port, in, clients, kCapacityWindow, plan, false, "serve capacity", result);
}

void timed_run(const Args& args, const ndsnn::nn::SpikingNetwork& net, Result& result) {
  timed_sub_runs(
      args, "serve",
      [&](int r, double sub_ms) {
        SubRun sr;
        Inputs in;
        const auto t0 = Clock::now();
        const auto stack = build_stack(net, args.seed, in);
        sr.setup_s = ms_between(t0, Clock::now()) / 1000.0;
        for (int b = 0; b < kBursts; ++b) {
          merge(sr.nominal,
                nominal_phase(stack->port(), in, kNominalShare * sub_ms / kBursts,
                              mix_seed(args.seed, r * kBursts + b), false, "serve nominal",
                              result));
          sr.bursts.push_back(capacity_burst(stack->port(), in, kClients, result));
        }
        return sr;
      },
      result);
}

void traced_run(const Args& args, const ndsnn::nn::SpikingNetwork& net, Result& result) {
  Inputs in;
  const auto stack = build_stack(net, args.seed, in);
  const Roofline roof = measure_roofline();
  result.metric("probe.copy_gbps", roof.copy_gbps, "GB/s");
  result.metric("probe.mac_gmacs", roof.mac_gmacs, "GMAC/s");
  const auto ref = ndsnn::runtime::CompiledNetwork::compile(net);
  const int64_t T = ref.timesteps();

  // Direct plan calls, each paired with a round trip of the same input
  // on one idle connection, so the server's share is a paired difference.
  std::vector<double> infer_ms, rtt_ms, overhead_ms;
  ClientLog idle;
  {
    const Connection conn(stack->port());
    for (int i = 0; i < kDirectCalls; ++i) {
      const std::size_t k = static_cast<std::size_t>(i) % kDistinct;
      auto t0 = Clock::now();
      {
        const ScopedSpan s("runtime.plan.infer", 0, i + 1);
        const auto r = ref.infer({in.batches[k]});
        if (!bitwise_equal(r.logits, in.expected[k])) result.fail("infer != run");
      }
      infer_ms.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      {
        const ScopedSpan s("client.idle_round_trip", 0, i + 1);
        if (!request(conn.fd(), in, k, idle)) result.fail("idle round trip failed");
      }
      rtt_ms.push_back(ms_between(t0, Clock::now()));
      overhead_ms.push_back(rtt_ms.back() - infer_ms.back());
    }
  }
  const double infer_p50 = median(infer_ms);
  result.metric("runtime.plan.infer_ms", infer_p50, "ms");
  result.metric("serve.server.overhead_p50_ms", median(overhead_ms), "ms");

  // Walk the plan op by op.
  OpWalk walk;
  const auto& plan = ref.plan_ir();
  for (int i = 0; i < kDirectCalls; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % kDistinct;
    const ScopedSpan root("runtime.plan.walk", 0, i + 1);
    ndsnn::snn::DirectEncoder enc;
    ndsnn::runtime::Activation x(enc.encode(in.batches[k], T));
    for (std::size_t o = 0; o < plan.ops.size(); ++o) {
      const std::string kind = op_kind(plan.reports[o].kind);
      const ScopedSpan s("runtime.op." + kind, root.id(), i + 1);
      const auto t0 = Clock::now();
      ndsnn::runtime::Activation y = plan.ops[o]->run(x);
      walk.us[kind] += ms_between(t0, Clock::now()) * 1000.0;
      double macs = 0.0, bytes = 0.0;
      op_cost(plan.reports[o], x.tensor, y.tensor, &macs, &bytes);
      walk.macs[kind] += macs;
      walk.bytes[kind] += bytes;
      x = std::move(y);
    }
    if (!bitwise_equal(ndsnn::nn::mean_over_time(x.tensor, T), in.expected[k])) {
      result.fail("op-by-op plan walk differs from CompiledNetwork::run");
    }
  }
  report_op_walk(walk, kDirectCalls, roof, result);

  // The runtime's own phase spans over the same calls.
  ndsnn::runtime::trace::reset();
  ndsnn::runtime::trace::set_enabled(true);
  for (int i = 0; i < kDirectCalls; ++i) (void)ref.run(in.batches[static_cast<std::size_t>(i) % kDistinct]);
  ndsnn::runtime::trace::set_enabled(false);
  report_phases(kDirectCalls, result);

  // Wire codec on this workload's own frames.
  const double codec_us = report_codec(
      kDirectCalls,
      [&](int64_t i) {
        const std::size_t k = static_cast<std::size_t>(i) % kDistinct;
        const auto req = serve::encode_request(serve::RequestFrame{"", 0, in.batches[k]});
        const auto dreq = serve::decode_request(req.data(), req.size());
        const auto resp =
            serve::encode_response(serve::ResponseFrame{serve::Status::kOk, in.expected[k], ""});
        const auto dresp = serve::decode_response(resp.data(), resp.size());
        return CodecRound{req.size() + resp.size() + 16,  // + two 8-byte prefixes
                          bitwise_equal(dreq.batch, in.batches[k]) &&
                              bitwise_equal(dresp.logits, in.expected[k])};
      },
      result);

  const double rtt_p50 = median(rtt_ms);
  result.metric("trace.unaccounted_frac", (rtt_p50 - infer_p50 - codec_us / 1000.0) / rtt_p50,
                "fraction");

  const double block_ms = 0.125 * args.seconds * 1000.0;
  const ClientLog blocks = traced_blocks(
      [&](int pair, bool span) {
        return nominal_phase(stack->port(), in, block_ms, mix_seed(args.seed, 50 + pair), span,
                             span ? "serve traced" : "serve untraced", result);
      },
      result);
  // A burst that keeps kParallelClients requests in the executor at once;
  // the executor statistics include it.
  const Tally capacity = capacity_burst(stack->port(), in, kParallelClients, result);
  result.metric("runtime.executor.parallel_per_s", capacity_rate({capacity}), "1/s");
  report_executor(stack->executor_stats(), result);
  result.attempted = blocks.sent + capacity.sent + idle.sent;
  result.failed = result.attempted - blocks.ok - capacity.ok - idle.ok;
}

}  // namespace

void run_serve(const Args& args, Result& result) {
  const core::Experiment exp = train_model();
  if (args.trace) {
    Tracer::instance().enable(true);
    traced_run(args, *exp.network, result);
    Tracer::instance().enable(false);
  } else {
    timed_run(args, *exp.network, result);
  }
}

}  // namespace perfbench
