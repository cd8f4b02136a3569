// train_ndsnn_vgg16: NDSNN trains a width-scaled spiking VGG-16 from
// scratch on synthetic CIFAR-10 to 0.95 sparsity, with drop-and-grow
// rounds inside the timed window (the paper's training-cost claim).
//
// Timed run: whole Trainer::run schedules back to back until --seconds
// is used up (at least one). Per-iteration latency comes from a
// SparseTrainingMethod wrapper whose after_step marks iteration ends, so
// the product loop itself runs untouched.
//
// Traced run: one untraced Trainer::run, then a replica of Trainer::run
// that walks body().layer(i).forward/backward with a span per call (its
// final-epoch loss must equal the untraced run's bitwise), then one
// dense run of the same config for core.dense_time_ratio.
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/ndsnn_method.hpp"
#include "core/trainer.hpp"
#include "data/augment.hpp"
#include "data/dataloader.hpp"
#include "metric_names.hpp"
#include "nn/loss.hpp"
#include "opt/lr_scheduler.hpp"
#include "opt/sgd.hpp"
#include "snn/encoder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = ndsnn::core;
namespace nn = ndsnn::nn;

constexpr double kTargetSparsity = 0.95;
constexpr int kSetupRepeats = 9;
/// A timed run trains at least this many whole schedules (72 iterations
/// each), so the fixed p90 tail of the per-iteration latency always has
/// at least 21 samples beyond it (p99 would need ten times the window),
/// and the throughput is a median over schedules.
constexpr std::size_t kMinSchedules = 3;
constexpr double kTailQ = 0.9;

core::ExperimentConfig train_config(uint64_t seed, const std::string& method) {
  core::ExperimentConfig c;
  c.arch = "vgg16";
  c.dataset = "cifar10";
  c.method = method;
  c.sparsity = kTargetSparsity;
  c.timesteps = 2;
  c.epochs = 3;
  c.batch_size = 8;
  c.train_samples = 192;
  c.test_samples = 64;
  c.model_scale = 0.125;
  c.data_scale = 1.0;
  c.seed = seed;
  return c;
}

/// Forwards every call to the real method and timestamps iteration ends
/// (after_step) and epoch starts, so Trainer::run can be timed per
/// iteration from outside. With tracing on it also spans before_step and
/// after_step.
class TimedMethod final : public core::SparseTrainingMethod {
 public:
  explicit TimedMethod(core::SparseTrainingMethod& inner) : inner_(inner) {
    ndsnn_ = dynamic_cast<core::NdsnnMethod*>(&inner);
  }

  void initialize(const std::vector<nn::ParamRef>& params, ndsnn::tensor::Rng& rng) override {
    inner_.initialize(params, rng);
  }
  void on_epoch_begin(int64_t epoch) override {
    inner_.on_epoch_begin(epoch);
    last_ = Clock::now();
  }
  void before_step(int64_t iteration) override {
    const ScopedSpan span("core.before_step", parent, iteration + 1);
    inner_.before_step(iteration);
  }
  void after_step(int64_t iteration) override {
    const bool update = ndsnn_ != nullptr && ndsnn_->is_update_step(iteration);
    const auto t0 = Clock::now();
    {
      const ScopedSpan span(update ? "core.mask_update" : "core.after_step", parent,
                            iteration + 1);
      inner_.after_step(iteration);
    }
    const auto t1 = Clock::now();
    if (update) mask_update_ms.push_back(ms_between(t0, t1));
    iteration_ms.push_back(ms_between(last_, t1));
    last_ = t1;
  }
  [[nodiscard]] double overall_sparsity() const override { return inner_.overall_sparsity(); }
  [[nodiscard]] std::vector<double> layer_sparsities() const override {
    return inner_.layer_sparsities();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::vector<double> iteration_ms;
  std::vector<double> mask_update_ms;
  int64_t parent = 0;  ///< span the method's spans nest under

 private:
  core::SparseTrainingMethod& inner_;
  core::NdsnnMethod* ndsnn_ = nullptr;
  Clock::time_point last_ = Clock::now();
};

struct ScheduleRun {
  core::TrainResult result;
  double wall_s = 0.0;
  int64_t samples = 0;
  std::vector<double> iteration_ms;
  std::vector<double> mask_update_ms;
};

/// Build the experiment and run the product Trainer on it.
ScheduleRun run_schedule(uint64_t seed, const std::string& method) {
  const core::ExperimentConfig cfg = train_config(seed, method);
  core::Experiment exp = core::build_experiment(cfg);
  TimedMethod timed(*exp.method);
  core::Trainer trainer(*exp.network, timed, *exp.train_set, *exp.test_set, exp.trainer);
  ScheduleRun run;
  const auto t0 = Clock::now();
  run.result = trainer.run();
  run.wall_s = ms_between(t0, Clock::now()) / 1000.0;
  run.samples = cfg.train_samples * cfg.epochs;
  run.iteration_ms = std::move(timed.iteration_ms);
  run.mask_update_ms = std::move(timed.mask_update_ms);
  return run;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void check_schedule(const ScheduleRun& run, Result& result) {
  const double loss = run.result.epochs.back().train_loss;
  if (!std::isfinite(loss)) result.fail("training loss is not finite");
  if (run.result.final_sparsity < kTargetSparsity - 1e-3) {
    result.fail("training ended at sparsity " + std::to_string(run.result.final_sparsity) +
                ", below the NDSNN target " + std::to_string(kTargetSparsity));
  }
}

std::string layer_kind(const std::string& name) {
  static const std::pair<const char*, const char*> kKinds[] = {
      {"Conv2d", "conv"},  {"BatchNorm", "bn"}, {"LIF", "lif"},
      {"AvgPool", "pool"}, {"MaxPool", "pool"}, {"Linear", "linear"}};
  for (const auto& [prefix, kind] : kKinds) {
    if (name.rfind(prefix, 0) == 0) return kind;
  }
  return "other";
}

/// The replica run: Trainer::run's loop, statement for statement, with
/// SpikingNetwork::train_step expanded into its layer calls. Returns the
/// per-epoch mean training losses.
struct ReplicaRun {
  std::vector<double> epoch_loss;
  double wall_s = 0.0;
  int64_t iterations = 0;
  int64_t evals = 0;
};

ReplicaRun run_replica(uint64_t seed) {
  const core::ExperimentConfig cfg = train_config(seed, "ndsnn");
  core::Experiment exp = core::build_experiment(cfg);
  nn::SpikingNetwork& net = *exp.network;
  if (dynamic_cast<const ndsnn::snn::DirectEncoder*>(&net.encoder()) == nullptr) {
    throw std::logic_error("replica expects the direct encoder");
  }
  TimedMethod method(*exp.method);
  const core::TrainerConfig& tc = exp.trainer;
  const auto& train_set = *exp.train_set;
  const auto& test_set = *exp.test_set;

  ReplicaRun out;
  const auto t0 = Clock::now();
  const ScopedSpan root("train.run");
  ndsnn::tensor::Rng rng(tc.seed);
  method.initialize(net.params(), rng);
  ndsnn::opt::SgdConfig sgd_config;
  sgd_config.learning_rate = tc.learning_rate;
  sgd_config.momentum = tc.momentum;
  sgd_config.weight_decay = tc.weight_decay;
  ndsnn::opt::Sgd sgd(net.params(), sgd_config);
  ndsnn::opt::CosineLr cosine(tc.learning_rate, tc.epochs);
  ndsnn::data::DataLoader loader(train_set, tc.batch_size, tc.seed ^ 0xABCDULL);
  ndsnn::data::AugmentConfig aug;
  aug.crop_padding = std::max<int64_t>(1, train_set.image_size() / 8);
  ndsnn::tensor::Rng aug_rng(tc.seed ^ 0x5EEDULL);
  ndsnn::snn::DirectEncoder encoder;
  nn::CrossEntropyLoss loss_fn;
  nn::Sequential& body = net.body();
  const int64_t T = net.timesteps();

  int64_t iteration = 0;
  for (int64_t epoch = 0; epoch < tc.epochs; ++epoch) {
    method.on_epoch_begin(epoch);
    const double lr = tc.cosine_lr ? cosine.lr_at(epoch) : tc.learning_rate;
    sgd.set_learning_rate(lr);
    loader.start_epoch();
    double loss_acc = 0.0;
    int64_t batches = 0;
    for (;;) {
      const int64_t req = iteration + 1;
      const ScopedSpan step_span("train.iteration", root.id(), req);
      method.parent = step_span.id();
      std::optional<ndsnn::data::Batch> batch;
      {
        const ScopedSpan s("data.batch", step_span.id(), req);
        batch = loader.next();
        if (batch && tc.augment) augment_batch(batch->images, aug, aug_rng);
      }
      if (!batch) break;
      {
        const ScopedSpan s("opt.zero_grad", step_span.id(), req);
        sgd.zero_grad();
      }
      double step_loss = 0.0;
      {
        const ScopedSpan fwd_all("nn.train_step", step_span.id(), req);
        body.reset_state();
        ndsnn::tensor::Tensor x = encoder.encode(batch->images, T);
        for (std::size_t i = 0; i < body.size(); ++i) {
          const ScopedSpan s("nn.fwd." + layer_kind(body.layer(i).name()), fwd_all.id(), req);
          x = body.layer(i).forward(x, /*training=*/true);
        }
        ndsnn::tensor::Tensor grad;
        {
          const ScopedSpan s("nn.loss", fwd_all.id(), req);
          const ndsnn::tensor::Tensor mean_logits = nn::mean_over_time(x, T);
          const nn::LossResult lr_res = loss_fn.compute(mean_logits, batch->labels);
          step_loss = lr_res.loss;
          grad = nn::broadcast_over_time(lr_res.grad_logits, T);
        }
        for (std::size_t i = body.size(); i-- > 0;) {
          const ScopedSpan s("nn.bwd." + layer_kind(body.layer(i).name()), fwd_all.id(), req);
          grad = body.layer(i).backward(grad);
        }
      }
      method.before_step(iteration);
      {
        const ScopedSpan s("opt.sgd_step", step_span.id(), req);
        sgd.step();
      }
      method.after_step(iteration);
      ++iteration;
      loss_acc += step_loss;
      ++batches;
    }
    out.epoch_loss.push_back(batches > 0 ? loss_acc / static_cast<double>(batches) : 0.0);
    {
      const ScopedSpan s("core.eval", root.id(), 0);
      ndsnn::data::DataLoader eval_loader(test_set, tc.batch_size, /*seed=*/1,
                                          /*shuffle=*/false);
      eval_loader.start_epoch();
      while (auto b = eval_loader.next()) (void)net.eval_step(b->images, b->labels);
      ++out.evals;
    }
    (void)method.overall_sparsity();
  }
  out.wall_s = ms_between(t0, Clock::now()) / 1000.0;
  out.iterations = iteration;
  return out;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double time_setup(uint64_t seed) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    const core::Experiment exp = core::build_experiment(train_config(seed, "ndsnn"));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(setup_s);
}

void timed_run(const Args& args, Result& result) {
  const double setup_s = time_setup(args.seed);
  const auto window_start = Clock::now();
  std::vector<ScheduleRun> runs;
  do {
    runs.push_back(run_schedule(args.seed, "ndsnn"));
    check_schedule(runs.back(), result);
  } while (runs.size() < kMinSchedules ||
           ms_between(window_start, Clock::now()) < args.seconds * 1000.0);

  const double loss = runs.front().result.epochs.back().train_loss;
  std::vector<double> iteration_ms, rate;
  double wall_s = 0.0;
  for (const auto& r : runs) {
    if (!same_bits(r.result.epochs.back().train_loss, loss)) {
      result.fail("the same seed gave a different final loss on a repeated schedule");
    }
    iteration_ms.insert(iteration_ms.end(), r.iteration_ms.begin(), r.iteration_ms.end());
    wall_s += r.wall_s;
    rate.push_back(static_cast<double>(r.samples) / r.wall_s);
  }
  result.attempted = static_cast<int64_t>(iteration_ms.size());
  result.failed = result.correct() ? 0 : result.attempted;
  const LatencySummary lat = summarize(iteration_ms, kTailQ);
  std::fprintf(stderr,
               "train: %zu schedules, %lld iterations, %.2f s in Trainer::run, loss %.6f, "
               "sparsity %.4f, p50 %.2f ms, p%.0f %.2f ms\n",
               runs.size(), static_cast<long long>(lat.count), wall_s, loss,
               runs.front().result.final_sparsity, lat.p50, lat.tail_q * 100, lat.tail);

  result.metric("setup_s", setup_s, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("throughput_per_s", median(rate), "1/s");
  result.metric("p50_ms", lat.p50, "ms");
  result.metric("tail_ms", lat.tail, "ms");
  result.metric("ok_frac", result.correct() ? 1.0 : 0.0, "fraction");
}

void traced_run(const Args& args, Result& result) {
  // Untraced reference schedule first: its wall clock is the base of the
  // tracing overhead and its loss the bitwise reference of the replica.
  const ScheduleRun ref = run_schedule(args.seed, "ndsnn");
  check_schedule(ref, result);

  Tracer::instance().enable(true);
  const ReplicaRun replica = run_replica(args.seed);
  Tracer::instance().enable(false);
  if (replica.epoch_loss.size() != ref.result.epochs.size()) {
    result.fail("replica ran a different number of epochs");
  } else {
    for (std::size_t e = 0; e < replica.epoch_loss.size(); ++e) {
      if (!same_bits(replica.epoch_loss[e], ref.result.epochs[e].train_loss)) {
        result.fail("the layer-walking train_step replica did not reproduce train_step's "
                    "loss bitwise (epoch " + std::to_string(e) + ")");
        break;
      }
    }
  }
  const ScheduleRun dense = run_schedule(args.seed, "dense");
  result.attempted = replica.iterations;
  result.failed = result.correct() ? 0 : result.attempted;

  const auto total = Tracer::instance().total_ms();
  auto per = [&](const std::string& span, double count) {
    const auto it = total.find(span);
    return it == total.end() || count <= 0 ? 0.0 : it->second / count;
  };
  const auto iters = static_cast<double>(replica.iterations);
  // Epoch ends also call loader.next() once (the nullopt that ends the
  // loop), so data.batch is averaged over those calls too.
  const double data_calls = iters + static_cast<double>(replica.evals);
  result.metric("data.batch_ms", per("data.batch", data_calls), "ms");
  for (const auto& kind : kLayerKinds) {
    result.metric("nn.fwd_ms." + kind, per("nn.fwd." + kind, iters), "ms");
    result.metric("nn.bwd_ms." + kind, per("nn.bwd." + kind, iters), "ms");
  }
  result.metric("opt.sgd_step_ms", per("opt.sgd_step", iters), "ms");
  result.metric("core.before_step_ms", per("core.before_step", iters), "ms");
  result.metric("core.mask_update_ms", mean(ref.mask_update_ms), "ms");
  result.metric("core.mask_updates", static_cast<double>(ref.mask_update_ms.size()), "count");
  result.metric("core.eval_ms", per("core.eval", static_cast<double>(replica.evals)), "ms");
  result.metric("core.train_loss", ref.result.epochs.back().train_loss, "nats");
  result.metric("core.density", 1.0 - ref.result.final_sparsity, "fraction");
  result.metric("core.cost_index", ref.result.cost_index, "fraction");
  double spike = 0.0;
  for (const auto& e : ref.result.epochs) spike += e.spike_rate;
  result.metric("snn.spike_rate", spike / static_cast<double>(ref.result.epochs.size()),
                "fraction");
  result.metric("core.dense_time_ratio", dense.wall_s / ref.wall_s, "ratio");

  // Time inside train.run that no layer span covers (loop glue, LR
  // schedule, sparsity readout), and the cost of tracing itself.
  const auto self = Tracer::instance().self_ms();
  const double run_ms = total.at("train.run");
  const double glue_ms = self.at("train.run") + self.at("train.iteration");
  result.metric("trace.unaccounted_frac", glue_ms / run_ms, "fraction");
  result.metric("trace.overhead_frac", (replica.wall_s - ref.wall_s) / ref.wall_s, "fraction");
  std::fprintf(stderr,
               "train traced: untraced %.3f s, traced replica %.3f s, dense %.3f s\n",
               ref.wall_s, replica.wall_s, dense.wall_s);
}

}  // namespace

void run_train(const Args& args, Result& result) {
  if (args.trace) {
    traced_run(args, result);
  } else {
    timed_run(args, result);
  }
}

}  // namespace perfbench
