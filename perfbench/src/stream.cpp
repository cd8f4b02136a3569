// stream_events_tcp: wire-v2 streams of small DVS-style event frames
// over loopback TCP into StreamSessions on the in-process executor
// (serve_sparse's defaults: 4 executor workers, fp32, coalescing off,
// autotune off, serial plan).
//
// Each client connection opens one stream and replays synthetic event
// sequences (data::SyntheticEvents: 6 frames of ON/OFF events, 2x16x16,
// kRows sensors per frame) each followed by 6 all-zero frames, so half
// the steps are silent and the delta-skip path is exercised. The served
// model is a LeNet-5 over 2-channel frames (width 0.5, T=2, as
// serve_sparse's) that NDSNN trains to 0.95 sparsity on single frames of
// the same generator, compiled with the firing rates its training
// recorded. It is trained once per process, before the sub-runs, so it
// is not part of setup_s.
//
// Each sub-run, after set-up and warm-up:
//   1. nominal: one stream sends one frame per kFramePeriodMs, open
//      loop, each step timed from its scheduled send time;
//   2. capacity: after each kBursts-th of the nominal phase, a burst of
//      kBurstSteps all due at once on the same stream, kCapacityWindow
//      outstanding, so the server always has the next one queued; the
//      answered step rate is throughput_per_s.
// The traced run adds a burst on kParallelClients streams, which keeps
// one step of each in the executor at once.
// Every step's logits must be bitwise equal to a local StreamSession
// replay of the same frame sequence.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/event_synthetic.hpp"
#include "nn/models/zoo.hpp"
#include "runtime/stream_session.hpp"
#include "runtime/trace.hpp"
#include "serve/wire.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = ndsnn::core;
namespace serve = ndsnn::serve;
using ndsnn::runtime::CompiledNetwork;
using ndsnn::runtime::StreamSession;
using ndsnn::tensor::Shape;
using ndsnn::tensor::Tensor;

constexpr int64_t kEventSteps = 6;
constexpr int64_t kSilentSteps = 6;
constexpr int64_t kCycle = kEventSteps + kSilentSteps;
constexpr int64_t kSamples = 64;
constexpr int64_t kSize = 16;
constexpr int kWarmupSteps = 200;
/// Rows per frame: each stream multiplexes this many sensors, so a step
/// is long enough that host wake-up jitter does not set its latency.
constexpr int64_t kRows = 32;
/// One frame per period, well above the step time, so steps never queue.
constexpr double kFramePeriodMs = 10.0;
constexpr int64_t kBurstSteps = 150;
constexpr int kDirectSteps = 1200;
const char* const kModel = "lenet5_events";

/// The event generator of the served model and of the streams (one
/// class-prototype seed); streams differ by sample offset.
ndsnn::data::EventSpec event_spec(int64_t sequences, int64_t offset) {
  ndsnn::data::EventSpec spec;
  spec.image_size = kSize;
  spec.timesteps = kEventSteps;
  spec.train_size = sequences;
  spec.sample_offset = offset;
  return spec;
}

/// Single [2, S, S] frames of SyntheticEvents sequences, labelled with
/// their sequence's class: one frame is what a stream step carries.
class EventFrames final : public ndsnn::data::Dataset {
 public:
  EventFrames(int64_t frames, int64_t offset)
      : events_(event_spec((frames + kEventSteps - 1) / kEventSteps, offset)), frames_(frames) {}
  [[nodiscard]] int64_t size() const override { return frames_; }
  [[nodiscard]] ndsnn::data::Sample get(int64_t index) const override {
    const ndsnn::data::Sample seq = events_.get(index / kEventSteps);
    const int64_t plane = 2 * kSize * kSize;
    ndsnn::data::Sample s;
    s.label = seq.label;
    s.image = Tensor(Shape({2, kSize, kSize}));
    const float* src = seq.image.data() + (index % kEventSteps) * plane;
    std::copy(src, src + plane, s.image.data());
    return s;
  }
  [[nodiscard]] int64_t num_classes() const override { return events_.num_classes(); }
  [[nodiscard]] int64_t channels() const override { return 2; }
  [[nodiscard]] int64_t image_size() const override { return kSize; }

 private:
  ndsnn::data::SyntheticEvents events_;
  int64_t frames_;
};

/// The served model: a LeNet-5 over event frames, trained with NDSNN
/// the way serve_sparse trains its model (same sizes, epochs, rate and
/// target), without augmentation (it would break the event geometry).
/// Trained once per process; --seed never changes it.
std::unique_ptr<ndsnn::nn::SpikingNetwork> train_model() {
  const auto t0 = Clock::now();
  core::ExperimentConfig cfg;
  cfg.method = "ndsnn";
  cfg.sparsity = 0.95;
  cfg.epochs = 8;
  cfg.train_samples = 320;
  cfg.timesteps = 2;
  cfg.learning_rate = 0.2;
  const EventFrames train(cfg.train_samples, 0), test(128, int64_t{1} << 20);
  ndsnn::nn::ModelSpec spec;
  spec.num_classes = train.num_classes();
  spec.in_channels = train.channels();
  spec.image_size = kSize;
  spec.timesteps = cfg.timesteps;
  spec.width_scale = cfg.model_scale;
  spec.lif.alpha = static_cast<float>(cfg.lif_alpha);
  spec.seed = cfg.seed;
  auto net = ndsnn::nn::make_model("lenet5", spec);
  const auto method = core::make_method(
      cfg, (cfg.train_samples + cfg.batch_size - 1) / cfg.batch_size);
  core::TrainerConfig tc;
  tc.epochs = cfg.epochs;
  tc.batch_size = cfg.batch_size;
  tc.learning_rate = cfg.learning_rate;
  tc.seed = cfg.seed;
  tc.augment = false;
  core::Trainer trainer(*net, *method, train, test, tc);
  const core::TrainResult r = trainer.run();
  if (r.final_sparsity < cfg.sparsity - 1e-3) {
    throw std::runtime_error("served model did not reach its target sparsity");
  }
  std::fprintf(stderr, "served model: trained in %.2f s, %.1f%% test accuracy at %.3f sparsity\n",
               ms_between(t0, Clock::now()) / 1000.0, r.final_test_acc, r.final_sparsity);
  return net;
}

struct Inputs {
  std::vector<std::vector<Tensor>> frames;  ///< [sample][event step] -> [kRows, 2, S, S]
  Tensor silent{Shape({kRows, 2, kSize, kSize}), 0.0F};
};

/// Event sequences from the served model's generator, at an offset set
/// by `seed` far past its training and test samples.
Inputs make_inputs(uint64_t seed) {
  const auto offset =
      (int64_t{1} << 32) + static_cast<int64_t>(mix_seed(seed, 21) >> 40) * kSamples * kRows;
  const ndsnn::data::SyntheticEvents ds(event_spec(kSamples * kRows, offset));
  Inputs in;
  const int64_t plane = kSize * kSize;
  for (int64_t j = 0; j < kSamples; ++j) {
    std::vector<Tensor> steps(static_cast<std::size_t>(kEventSteps),
                              Tensor(Shape({kRows, 2, kSize, kSize})));
    for (int64_t r = 0; r < kRows; ++r) {
      const ndsnn::data::Sample s = ds.get(j * kRows + r);
      for (int64_t t = 0; t < kEventSteps; ++t) {
        std::copy(s.image.data() + 2 * t * plane, s.image.data() + (2 * t + 2) * plane,
                  steps[static_cast<std::size_t>(t)].data() + r * 2 * plane);
      }
    }
    in.frames.push_back(std::move(steps));
  }
  return in;
}

/// Frame of step `s` of stream `c`: a cycle of event frames then silence,
/// each stream walking the samples from its own offset.
const Tensor& frame_at(const Inputs& in, int c, int64_t s) {
  const int64_t phase = s % kCycle;
  if (phase >= kEventSteps) return in.silent;
  const auto sample = static_cast<std::size_t>((s / kCycle + 17 * c) % kSamples);
  return in.frames[sample][static_cast<std::size_t>(phase)];
}

/// One stream connection: opened at construction, closed at destruction.
class StreamConn {
 public:
  explicit StreamConn(uint16_t port) : conn_(port) {
    if (serve::stream_open(conn_.fd(), "").status != serve::Status::kOk) {
      throw std::runtime_error("stream-open refused");
    }
  }
  ~StreamConn() {
    try {
      (void)serve::stream_close(conn_.fd());
    } catch (const std::exception&) {
      // the socket closes below either way
    }
  }
  StreamConn(const StreamConn&) = delete;
  StreamConn& operator=(const StreamConn&) = delete;
  [[nodiscard]] int fd() const { return conn_.fd(); }

 private:
  Connection conn_;
};

/// Inputs, the stack, and a warm-up of a stream, the session path and
/// the executor workers: the set-up of a sub-run.
std::unique_ptr<ServeStack> build_stack(const ndsnn::nn::SpikingNetwork& net, uint64_t seed,
                                        Inputs& in) {
  in = make_inputs(seed);
  auto stack = std::make_unique<ServeStack>(net, kModel);
  const StreamConn conn(stack->port());
  for (int64_t i = 0; i < kWarmupSteps; ++i) {
    if (serve::stream_step(conn.fd(), frame_at(in, 0, i)).status != serve::Status::kOk) {
      throw std::runtime_error("warm-up failed");
    }
  }
  return stack;
}

/// `n` fresh streams.
std::vector<std::unique_ptr<StreamConn>> open_streams(uint16_t port, int n,
                                                      std::vector<int>& fds) {
  std::vector<std::unique_ptr<StreamConn>> conns;
  fds.clear();
  for (int c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<StreamConn>(port));
    fds.push_back(conns.back()->fd());
  }
  return conns;
}

/// Logits each stream received, in step order, for the replay check.
using Received = std::vector<std::vector<Tensor>>;

/// Replay every stream's frames through a local StreamSession and compare
/// step by step.
void check_replay(const CompiledNetwork& ref, const Inputs& in, const Received& got,
                  Result& result) {
  for (std::size_t c = 0; c < got.size(); ++c) {
    StreamSession session(ref);
    for (std::size_t s = 0; s < got[c].size(); ++s) {
      const Tensor logits =
          session.step(frame_at(in, static_cast<int>(c), static_cast<int64_t>(s))).logits;
      if (got[c][s].numel() == 1 || !bitwise_equal(got[c][s], logits)) {
        result.fail("stream " + std::to_string(c) + " step " + std::to_string(s) +
                    " differs from the local StreamSession replay");
        return;
      }
    }
  }
}

/// Paced open-loop phase: each stream sends `per_stream` frames, one per
/// `period_ms` (streams staggered; 0 = all at once, so they pipeline
/// with kCapacityWindow outstanding per stream), continuing from step
/// next_step[c], which it advances.
Tally paced_phase(const std::vector<int>& fds, const Inputs& in, int64_t per_stream,
                  double period_ms, std::vector<int64_t>& next_step, Received& got, bool span,
                  const std::string& name, Result& result) {
  const int clients = static_cast<int>(fds.size());
  std::vector<Planned> plan;
  std::vector<std::pair<int, int64_t>> items;  // (stream, step)
  for (int64_t k = 0; k < per_stream; ++k) {
    for (int c = 0; c < clients; ++c) {
      const double due = (static_cast<double>(k) + static_cast<double>(c) / clients) * period_ms;
      plan.push_back({due, c, static_cast<int64_t>(items.size())});
      items.emplace_back(c, next_step[static_cast<std::size_t>(c)] + k);
    }
  }
  for (int c = 0; c < clients; ++c) {
    got[static_cast<std::size_t>(c)].resize(
        static_cast<std::size_t>(next_step[static_cast<std::size_t>(c)] + per_stream),
        Tensor());
  }
  const auto outcomes = open_loop(
      fds, plan,
      [&](int64_t item) {
        const auto [c, s] = items[static_cast<std::size_t>(item)];
        return serve::encode_stream_step(serve::StreamStepFrame{frame_at(in, c, s)});
      },
      [&](int64_t item, const serve::ResponseFrame& resp) {
        const auto [c, s] = items[static_cast<std::size_t>(item)];
        if (resp.status != serve::Status::kOk) return false;
        got[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] = resp.logits;
        return true;
      },
      period_ms > 0.0 ? 0 : kCapacityWindow, span);
  for (int c = 0; c < clients; ++c) next_step[static_cast<std::size_t>(c)] += per_stream;
  return tally(outcomes, name, result);
}

/// One sub-run's phases on `stack`: kBursts times a share of the paced
/// phase on the first kClients of `streams` fresh streams, then a
/// capacity burst on all of them; then the replay check.
void stream_phases(const ServeStack& stack, const CompiledNetwork& ref, const Inputs& in,
                   double ms, int streams, SubRun& sr, Result& result) {
  std::vector<int> fds;
  auto conns = open_streams(stack.port(), streams, fds);
  Received got(static_cast<std::size_t>(streams));
  std::vector<int64_t> next_step(static_cast<std::size_t>(streams), 0);
  const std::vector<int> paced(fds.begin(), fds.begin() + kClients);
  const auto paced_steps = static_cast<int64_t>(kNominalShare * ms / kFramePeriodMs / kBursts);
  for (int b = 0; b < kBursts; ++b) {
    merge(sr.nominal, paced_phase(paced, in, paced_steps, kFramePeriodMs, next_step, got, false,
                                  "stream nominal", result));
    sr.bursts.push_back(
        paced_phase(fds, in, kBurstSteps, 0.0, next_step, got, false, "stream capacity", result));
  }
  conns.clear();
  check_replay(ref, in, got, result);
}

void timed_run(const Args& args, const ndsnn::nn::SpikingNetwork& net, Result& result) {
  const auto ref = CompiledNetwork::compile(net);
  timed_sub_runs(
      args, "stream",
      [&](int, double sub_ms) {
        SubRun sr;
        Inputs in;
        const auto t0 = Clock::now();
        const auto stack = build_stack(net, args.seed, in);
        sr.setup_s = ms_between(t0, Clock::now()) / 1000.0;
        stream_phases(*stack, ref, in, sub_ms, kClients, sr, result);
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
  const auto ref = CompiledNetwork::compile(net);
  const auto& plan = ref.plan_ir();

  // Direct StreamSession steps, paired with a round trip of the same
  // frame on one idle stream.
  std::vector<double> active_us, silent_us, step_ms, rtt_ms, overhead_ms;
  std::vector<Tensor> direct;
  StreamSession session(ref);
  ClientLog idle;
  {
    const StreamConn conn(stack->port());
    for (int64_t s = 0; s < kDirectSteps; ++s) {
      const Tensor& frame = frame_at(in, 0, s);
      auto t0 = Clock::now();
      {
        const ScopedSpan span("runtime.stream.step", 0, s + 1);
        direct.push_back(session.step(frame).logits);
      }
      const double ms = ms_between(t0, Clock::now());
      step_ms.push_back(ms);
      (s % kCycle < kEventSteps ? active_us : silent_us).push_back(ms * 1000.0);
      t0 = Clock::now();
      {
        const ScopedSpan span("client.idle_stream_step", 0, s + 1);
        ++idle.sent;
        const auto resp = serve::stream_step(conn.fd(), frame);
        if (resp.status == serve::Status::kOk && bitwise_equal(resp.logits, direct.back())) {
          ++idle.ok;
        } else {
          result.fail("idle stream step differs from the local StreamSession");
        }
      }
      rtt_ms.push_back(ms_between(t0, Clock::now()));
      overhead_ms.push_back(rtt_ms.back() - ms);
    }
  }
  // The runtime's own phase spans over the same frames, on a fresh session.
  ndsnn::runtime::trace::reset();
  ndsnn::runtime::trace::set_enabled(true);
  {
    StreamSession traced(ref);
    for (int64_t s = 0; s < kDirectSteps; ++s) (void)traced.step(frame_at(in, 0, s));
  }
  ndsnn::runtime::trace::set_enabled(false);
  report_phases(kDirectSteps, result);
  result.metric("runtime.stream.step_us.active", median(active_us), "us");
  result.metric("runtime.stream.step_us.silent", median(silent_us), "us");
  result.metric("serve.server.overhead_p50_ms", median(overhead_ms), "ms");
  int64_t stateless = 0;
  for (const auto& op : plan.ops) stateless += op->make_state() == nullptr ? 1 : 0;
  result.metric("runtime.stream.delta_skip_ratio",
                static_cast<double>(session.delta_skips()) /
                    static_cast<double>(kDirectSteps * std::max<int64_t>(1, stateless)),
                "fraction");

  // Op by op through op->step with per-op state.
  std::vector<std::unique_ptr<ndsnn::runtime::OpState>> states;
  for (const auto& op : plan.ops) states.push_back(op->make_state());
  std::map<std::string, double> op_us;
  for (int64_t s = 0; s < kDirectSteps; ++s) {
    const ScopedSpan root("runtime.stream.walk", 0, s + 1);
    ndsnn::runtime::Activation x(frame_at(in, 0, s));
    for (std::size_t o = 0; o < plan.ops.size(); ++o) {
      const std::string kind = op_kind(plan.reports[o].kind);
      const ScopedSpan span("runtime.op_step." + kind, root.id(), s + 1);
      const auto t0 = Clock::now();
      ndsnn::runtime::Activation y = plan.ops[o]->step(x, states[o].get());
      op_us[kind] += ms_between(t0, Clock::now()) * 1000.0;
      x = std::move(y);
    }
    if (!bitwise_equal(x.tensor, direct[static_cast<std::size_t>(s)])) {
      result.fail("op-by-op step walk differs from StreamSession::step");
      break;
    }
  }
  for (const auto& [kind, us] : op_us) {
    result.metric("runtime.op.step_us." + kind, us / kDirectSteps, "us");
  }

  // Wire codec on this workload's own frames.
  const double codec_us = report_codec(
      kDirectSteps,
      [&](int64_t s) {
        const Tensor& frame = frame_at(in, 0, s);
        const Tensor& logits = direct[static_cast<std::size_t>(s)];
        const auto req = serve::encode_stream_step(serve::StreamStepFrame{frame});
        const auto dreq = serve::decode_stream_step(req.data(), req.size());
        const auto resp =
            serve::encode_response(serve::ResponseFrame{serve::Status::kOk, logits, ""});
        const auto dresp = serve::decode_response(resp.data(), resp.size());
        return CodecRound{req.size() + resp.size() + 16,  // + two 8-byte prefixes
                          bitwise_equal(dreq.frame, frame) && bitwise_equal(dresp.logits, logits)};
      },
      result);
  const double rtt_p50 = median(rtt_ms);
  result.metric("trace.unaccounted_frac",
                (rtt_p50 - median(step_ms) - codec_us / 1000.0) / rtt_p50, "fraction");

  // The paced phase on fresh streams, then the capacity bursts of one
  // sub-run on kParallelClients streams, which keep that many steps in
  // the executor at once; the executor statistics include them.
  const double block_ms = 0.125 * args.seconds * 1000.0;
  const ClientLog blocks = traced_blocks(
      [&](int, bool span) {
        std::vector<int> fds;
        auto conns = open_streams(stack->port(), kClients, fds);
        Received got(static_cast<std::size_t>(kClients));
        std::vector<int64_t> next_step(static_cast<std::size_t>(kClients), 0);
        Tally t = paced_phase(fds, in, static_cast<int64_t>(block_ms / kFramePeriodMs),
                              kFramePeriodMs, next_step, got, span,
                              span ? "stream traced" : "stream untraced", result);
        check_replay(ref, in, got, result);
        return t;
      },
      result);
  SubRun capacity;
  stream_phases(*stack, ref, in, 0.0, kParallelClients, capacity, result);
  result.metric("runtime.executor.parallel_per_s", capacity_rate(capacity.bursts), "1/s");
  report_executor(stack->executor_stats(), result);
  result.attempted = blocks.sent + idle.sent;
  result.failed = result.attempted - blocks.ok - idle.ok;
  for (const Tally& b : capacity.bursts) {
    result.attempted += b.sent;
    result.failed += b.sent - b.ok;
  }
}

}  // namespace

void run_stream(const Args& args, Result& result) {
  const auto net = train_model();
  if (args.trace) {
    Tracer::instance().enable(true);
    traced_run(args, *net, result);
    Tracer::instance().enable(false);
  } else {
    timed_run(args, *net, result);
  }
}

}  // namespace perfbench
