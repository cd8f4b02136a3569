// StreamSession: the streaming execution subsystem's contract.
//
// The load-bearing property is bitwise equivalence: feeding T frames
// through a session one step() at a time must reproduce the
// whole-window Plan::execute pass exactly, per step, across every
// backend x activation mode (and on quantised plans, where both sides
// share the same plan, the contract still holds bitwise). On top of that: the delta path must observably skip
// stateless stages on empty input steps (trace span + metric +
// InferenceResult::skipped_ops), reset() must restore first-step
// semantics, and MaxPool must propagate spike-train event views (the
// PR 3 leftover this file pins).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/lif_activation.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "runtime/stream_session.hpp"
#include "runtime/trace.hpp"
#include "testing.hpp"
#include "util/metrics.hpp"

namespace ndsnn::runtime {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Stack frames time-major ([F*N, ...], row block t = frame t), the
/// layout DirectEncoder produces and Plan::execute expects.
Tensor concat_time_major(const std::vector<Tensor>& frames) {
  const int64_t per = frames[0].numel();
  std::vector<int64_t> dims{static_cast<int64_t>(frames.size()) * frames[0].dim(0)};
  for (int64_t d = 1; d < frames[0].rank(); ++d) dims.push_back(frames[0].dim(d));
  Tensor out(Shape{dims});
  for (std::size_t t = 0; t < frames.size(); ++t) {
    for (int64_t i = 0; i < per; ++i) {
      out.at(static_cast<int64_t>(t) * per + i) = frames[t].at(i);
    }
  }
  return out;
}

/// Row block t of a time-major output [F*N, C] as its own [N, C] tensor.
Tensor step_slice(const Tensor& window_out, int64_t t, int64_t rows_per_step) {
  const int64_t cols = window_out.numel() / window_out.dim(0);
  Tensor out(Shape{rows_per_step, cols});
  for (int64_t i = 0; i < rows_per_step * cols; ++i) {
    out.at(i) = window_out.at(t * rows_per_step * cols + i);
  }
  return out;
}

/// Per-step input frames for a scenario: one distinctly-salted batch
/// per step, with one all-zero frame mixed in so every scenario crosses
/// the delta path at least once. Always exactly cfg.timesteps frames —
/// LifOp::run splits the whole-window input into the plan's compiled
/// timesteps, so the window pass is the streamed run's sequential
/// reference only when the stream length matches the plan's T.
std::vector<Tensor> scenario_frames(const difftest::NetConfig& cfg) {
  const int64_t steps = cfg.timesteps;
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < steps; ++t) {
    difftest::NetConfig salted = cfg;
    if (t == steps / 2 && cfg.input != difftest::InputKind::kSaturated) {
      salted.input = difftest::InputKind::kSilent;
    }
    frames.push_back(difftest::random_batch(salted, /*salt=*/100 + static_cast<uint64_t>(t)));
  }
  return frames;
}

/// Assert streamed-per-step == whole-window bitwise for one compiled
/// plan (both sides run the SAME plan, so the check is exact even on
/// quantised plans).
void expect_stream_matches_window(const CompiledNetwork& compiled,
                                  const std::vector<Tensor>& frames,
                                  const std::string& context) {
  const Tensor window_out = compiled.plan_ir().execute(concat_time_major(frames));
  const int64_t rows = frames[0].dim(0);

  StreamSession serial(compiled);
  for (std::size_t t = 0; t < frames.size(); ++t) {
    const InferenceResult r = serial.step(frames[t]);
    difftest::expect_bitwise(r.logits, step_slice(window_out, static_cast<int64_t>(t), rows),
                             context + " serial step " + std::to_string(t));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamSessionTest, StreamedMatchesWholeWindowBitwiseAcrossBackends) {
  const int configs = std::max(4, difftest::env_int("NDSNN_DIFF_CONFIGS", 200) / 8);
  tensor::Rng rng(difftest::env_seed());
  std::vector<difftest::NetConfig> cases;
  // Pinned: an all-silent scenario (every step exercises the delta
  // path) and a saturated one (event views at full rate) regardless of
  // seed and sweep size.
  difftest::NetConfig pinned;
  pinned.image = 8;
  pinned.seed = 97;
  pinned.sparsity = 0.9;
  pinned.timesteps = 4;  // a real multi-step stream, silent frame mid-window
  pinned.input = difftest::InputKind::kSilent;
  cases.push_back(pinned);
  pinned.input = difftest::InputKind::kSaturated;
  cases.push_back(pinned);
  for (int i = 0; i < configs; ++i) cases.push_back(difftest::random_config(rng));

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const difftest::NetConfig& cfg = cases[i];
    SCOPED_TRACE("config " + std::to_string(i) + ": " + cfg.str());
    const auto net = difftest::build_network(cfg);
    const std::vector<Tensor> frames = scenario_frames(cfg);

    for (const Backend backend : difftest::all_backends()) {
      for (const ActivationMode activation : difftest::all_activation_modes()) {
        const CompiledNetwork compiled = CompiledNetwork::compile(
            *net, difftest::options_for(backend, activation));
        expect_stream_matches_window(
            compiled, frames,
            std::string("backend=") + difftest::backend_name(backend) +
                " activation=" + difftest::activation_name(activation));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(StreamSessionTest, StreamedMatchesWholeWindowOnQuantisedPlans) {
  // Both sides of the equivalence run the SAME quantised plan, so the
  // bitwise contract survives quantisation (no cross-precision
  // comparison is involved — that axis lives in the lockstep sweep).
  const int configs = std::max(2, difftest::env_int("NDSNN_DIFF_CONFIGS", 200) / 40);
  tensor::Rng rng(difftest::env_seed() ^ 0xABCDULL);
  for (int i = 0; i < configs; ++i) {
    const difftest::NetConfig cfg = difftest::random_config(rng);
    SCOPED_TRACE("config " + std::to_string(i) + ": " + cfg.str());
    const auto net = difftest::build_network(cfg);
    const std::vector<Tensor> frames = scenario_frames(cfg);
    CompileOptions opts = difftest::options_for();
    opts.weight_precision = WeightPrecision::kInt8;
    const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
    expect_stream_matches_window(compiled, frames, "precision=int8");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamSessionTest, EmptyStepSkipsStatelessStagesObservably) {
  difftest::NetConfig cfg;
  cfg.image = 8;
  cfg.seed = 1234;
  cfg.sparsity = 0.9;
  const auto net = difftest::build_network(cfg);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, difftest::options_for());
  StreamSession session(compiled);

  const Tensor zero(Shape{cfg.batch, cfg.channels, cfg.image, cfg.image});
  auto& skip_counter = util::MetricsRegistry::global().counter("stream.delta_skips");

  // First empty step: the zero-input caches are cold, every stage
  // actually runs (cache fill is not a skip).
  const InferenceResult first = session.step(zero);
  EXPECT_EQ(first.skipped_ops, 0);
  EXPECT_EQ(session.delta_skips(), 0);

  // Second empty step: the input stage (and any stage whose input is a
  // provably-empty spike train again) must hit the cache. Observable
  // three ways: the per-step skip count, the session/metric totals, and
  // a "delta-skip" trace span.
  const double metric_before = skip_counter.value();
  trace::set_enabled(true);
  trace::reset();
  const InferenceResult second = session.step(zero);
  trace::set_enabled(false);
  EXPECT_GT(second.skipped_ops, 0);
  EXPECT_EQ(session.delta_skips(), second.skipped_ops);
  EXPECT_EQ(skip_counter.value() - metric_before,
            static_cast<double>(second.skipped_ops));
  int delta_spans = 0;
  for (const trace::Span& s : trace::snapshot()) {
    if (s.name == "delta-skip") {
      ++delta_spans;
      EXPECT_STREQ(s.cat, "stream");
    }
  }
  trace::reset();
  EXPECT_EQ(delta_spans, second.skipped_ops);

  // Skipping must not change the arithmetic: the two empty steps are
  // steps 0 and 1 of an all-zero window.
  const Tensor window_out =
      compiled.plan_ir().execute(concat_time_major({zero, zero}));
  difftest::expect_bitwise(first.logits, step_slice(window_out, 0, cfg.batch),
                           "first empty step");
  difftest::expect_bitwise(second.logits, step_slice(window_out, 1, cfg.batch),
                           "second empty step");
}

TEST(StreamSessionTest, ResetRestoresFirstStepSemantics) {
  difftest::NetConfig cfg;
  cfg.image = 8;
  cfg.seed = 77;
  cfg.sparsity = 0.8;
  cfg.timesteps = 3;
  const auto net = difftest::build_network(cfg);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, difftest::options_for());
  const std::vector<Tensor> frames = scenario_frames(cfg);

  StreamSession session(compiled);
  std::vector<Tensor> pass1;
  for (const Tensor& f : frames) pass1.push_back(session.step(f).logits);
  EXPECT_EQ(session.steps(), 3);

  // Without a reset the membrane state carries over: the same frames
  // must now produce a different first output (otherwise the session
  // holds no state at all and streaming is a sham). LIF dynamics on
  // non-trivial inputs diverge from the fresh-state trajectory.
  session.reset();
  EXPECT_EQ(session.steps(), 0);
  std::vector<Tensor> pass2;
  for (const Tensor& f : frames) pass2.push_back(session.step(f).logits);
  for (std::size_t t = 0; t < pass1.size(); ++t) {
    difftest::expect_bitwise(pass2[t], pass1[t], "replay after reset, step " +
                                                     std::to_string(t));
  }

  // reset() must also clear the batch-size pin: a different N succeeds.
  session.reset();
  const Tensor wider(Shape{cfg.batch + 1, cfg.channels, cfg.image, cfg.image});
  EXPECT_NO_THROW((void)session.step(wider));
  // ... and changing N mid-stream (without reset) is rejected.
  EXPECT_THROW((void)session.step(frames[0]), std::invalid_argument);
}

TEST(StreamSessionTest, MaxPoolPropagatesEventViewsBitwise) {
  // No zoo model uses MaxPool2d (both poolers are AvgPool2d), so the
  // PR 3 leftover is pinned on a purpose-built stack: spike trains out
  // of the LIF flow through MaxPool as event views (max of a binary
  // window == OR of its events), and the downstream Linear must see a
  // usable view. Forced-event compile against the interpreted reference
  // pins the arithmetic; the "maxpool-events" phase span proves the
  // event path (not the dense fallback) actually executed.
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 3;
  spec.seed = 4242;
  tensor::Rng rng(spec.seed);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  body->emplace<nn::BatchNorm2d>(4);
  body->emplace<nn::LifActivation>(spec.lif, spec.timesteps);
  body->emplace<nn::MaxPool2d>(2);
  body->emplace<nn::Flatten>();
  body->emplace<nn::Linear>(4 * 4 * 4, 32, rng);
  body->emplace<nn::LifActivation>(spec.lif, spec.timesteps);
  body->emplace<nn::Linear>(32, 10, rng);
  auto net = std::make_unique<nn::SpikingNetwork>(std::move(body), spec.timesteps);
  difftest::apply_random_masks(*net, 0.9, spec.seed + 1);

  Tensor batch(Shape{2, 1, 8, 8});
  tensor::Rng batch_rng(spec.seed + 2);
  batch.fill_uniform(batch_rng, 0.0F, 1.0F);
  difftest::warm_up(*net, batch);
  const Tensor want = net->predict(batch);

  CompileOptions opts;
  opts.activation_mode = ActivationMode::kEvent;
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);

  trace::set_enabled(true);
  trace::reset();
  const Tensor got = compiled.run(batch);
  trace::set_enabled(false);
  difftest::expect_bitwise(got, want, "maxpool event plan vs interpreted");
  int maxpool_event_spans = 0;
  for (const trace::Span& s : trace::snapshot()) {
    if (s.name == "maxpool-events") ++maxpool_event_spans;
  }
  trace::reset();
  EXPECT_GT(maxpool_event_spans, 0)
      << "MaxPool never took the event path under forced-event compile";

  // And the streaming contract holds over the same plan.
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < spec.timesteps; ++t) frames.push_back(batch);
  expect_stream_matches_window(compiled, frames, "maxpool stream");
}

}  // namespace
}  // namespace ndsnn::runtime
