#include "runtime/compiled_network.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <utility>

#include "nn/batchnorm.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/lif_activation.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "runtime/ops/batchnorm_op.hpp"
#include "runtime/ops/conv_op.hpp"
#include "runtime/ops/linear_op.hpp"
#include "runtime/ops/neuron_ops.hpp"
#include "runtime/ops/shape_ops.hpp"
#include "snn/spike_stats.hpp"
#include "tensor/ops.hpp"

namespace ndsnn::runtime {

using tensor::Tensor;

namespace {

/// Forward dataflow the compiler tracks while walking the body: whether
/// the activation entering the next layer is spike-valued (mostly-zero),
/// and the best available estimate of its nonzero fraction. Neuron-layer
/// rates come from the network's recorded firing rates when a forward
/// pass ran (Layer::last_spike_rate), else from the CompileOptions
/// fallback; all of them aggregate into a snn::SpikeStats summary the
/// plan reports.
struct Lowering {
  const CompileOptions& opts;
  bool spiking = false;  ///< next layer's input is a spike train
  double rate = 1.0;     ///< estimated nonzero fraction of that input
  snn::SpikeStats stats; ///< per-neuron-layer rate aggregate
  bool emit_events = false;  ///< neuron ops produce SpikeBatch views
  bool dry = false;       ///< walk state only, build no ops (pre-pass)
  bool any_event = false; ///< some weight layer decided event-driven
  std::size_t weight_index = 0;  ///< weight layers seen, in body order
                                 ///< (indexes CompileOptions::layer_precisions)
  explicit Lowering(const CompileOptions& o) : opts(o) {}

  void now_dense() {
    spiking = false;
    rate = 1.0;
  }

  void now_spiking(double measured_rate) {
    spiking = true;
    // last_spike_rate() is 0.0 both before any forward pass and for a
    // genuinely silent layer; either way the fallback estimate is the
    // safer planning number (a silent input favours the event path too).
    rate = measured_rate > 0.0 ? measured_rate : opts.firing_rate_estimate;
    // SpikeStats counts elements; layer shapes are unknown at compile
    // time, so weight every layer equally at a fixed resolution (the
    // summary only needs ~1e-6 precision on the mean).
    stats.record_rate(rate, int64_t{1} << 20);
  }

  /// Pooling a spike train: a window output is nonzero when any of its
  /// k*k inputs is, so the union bound k*k*rate caps the outgoing rate.
  void pooled(int64_t k) {
    if (spiking) rate = std::min(1.0, rate * static_cast<double>(k * k));
  }

  /// Should the weight layer consuming the current activation run
  /// event-driven?
  [[nodiscard]] bool event_for_weight_layer() const {
    switch (opts.activation_mode) {
      case ActivationMode::kDense: return false;
      case ActivationMode::kEvent: return true;
      case ActivationMode::kAuto: return spiking && rate <= opts.event_max_rate;
    }
    return false;
  }
};

/// The weight-kernel cost heuristic: dense below the sparsity bar, else
/// CSR. Sparsity counts the entries with |w| > prune_threshold — the
/// same strict rule sparse::Csr::from_weights keeps — so a CSR layer's
/// nnz is exactly the count measured here. A forced
/// CompileOptions::backend short-circuits the measurement.
Kernel pick_kernel(const Tensor& weight, const CompileOptions& opts) {
  if (opts.backend == Backend::kDense) return Kernel::kDense;
  if (opts.backend == Backend::kCsr) return Kernel::kCsr;
  const float* w = weight.data();
  const int64_t total = weight.numel();
  int64_t nnz = 0;
  for (int64_t i = 0; i < total; ++i) nnz += std::fabs(w[i]) > opts.prune_threshold;
  const double sparsity =
      total == 0 ? 0.0 : 1.0 - static_cast<double>(nnz) / static_cast<double>(total);
  return sparsity < opts.min_sparsity ? Kernel::kDense : Kernel::kCsr;
}

/// The value-plane precision heuristic. Quantised planes live on the
/// sparse formats, so dense-kernel layers always execute fp32. Under
/// kAuto a per-layer override vector (filled from a v3 checkpoint's
/// quantisation record) wins; otherwise the layer takes int8 when its
/// measured per-row reconstruction error stays under quant_max_error —
/// a calibration on the actual weight values, not a
/// fixed bitwidth-based rule, so outlier-heavy layers stay fp32. The
/// weight-layer counter advances for *every* weight layer (dense ones
/// included) to keep the override indexing aligned with the prunable
/// parameter order. The measurement matches the scheme the op will
/// actually emit: event-path linear layers quantise Wᵀ with a *uniform*
/// plane-wide scale (the binary-spike int32 gather's precondition), so
/// `uniform_error` measures that scheme instead of the per-row one —
/// both share the 1/254 worst case on the global-relative metric,
/// but the measured values differ and the bound must gate the real
/// plane.
sparse::Precision pick_precision(const Tensor& weight, Kernel kernel, bool uniform_error,
                                 Lowering& lw) {
  const CompileOptions& opts = lw.opts;
  const std::size_t index = lw.weight_index++;
  if (kernel == Kernel::kDense) return sparse::Precision::kFp32;
  switch (opts.weight_precision) {
    case WeightPrecision::kFp32: return sparse::Precision::kFp32;
    case WeightPrecision::kInt8: return sparse::Precision::kInt8;
    case WeightPrecision::kAuto: break;
  }
  if (index < opts.layer_precisions.size()) return opts.layer_precisions[index];
  return sparse::relative_quant_error(weight, sparse::Precision::kInt8, opts.prune_threshold,
                                      uniform_error) <= static_cast<float>(opts.quant_max_error)
             ? sparse::Precision::kInt8
             : sparse::Precision::kFp32;
}

std::unique_ptr<Op> compile_layer(const nn::Layer& layer, Lowering& lw);

std::vector<std::unique_ptr<Op>> compile_chain(
    std::initializer_list<const nn::Layer*> layers, Lowering& lw) {
  std::vector<std::unique_ptr<Op>> ops;
  for (const nn::Layer* layer : layers) {
    if (layer != nullptr) ops.push_back(compile_layer(*layer, lw));
  }
  return ops;
}

/// One function serves both passes of the staged compile: the dry
/// pre-pass walks the identical dataflow-state transitions (so the
/// event decisions cannot diverge between passes) but skips the weight
/// measurement and op construction, only recording into Lowering
/// whether any weight layer chooses the event path — which is what
/// decides if the neuron ops pay for SpikeBatch emission at all.
std::unique_ptr<Op> compile_layer(const nn::Layer& layer, Lowering& lw) {
  if (const auto* linear = dynamic_cast<const nn::Linear*>(&layer)) {
    const bool event = lw.event_for_weight_layer();
    lw.any_event |= event;
    lw.now_dense();
    if (lw.dry) return nullptr;
    const Kernel kernel = pick_kernel(linear->weight(), lw.opts);
    // Event-path LinearOp builds a uniform-scale plane; measure that.
    const sparse::Precision precision =
        pick_precision(linear->weight(), kernel, /*uniform_error=*/event, lw);
    return std::make_unique<LinearOp>(*linear, kernel, precision, event, lw.opts);
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
    const bool event = lw.event_for_weight_layer();
    lw.any_event |= event;
    lw.now_dense();
    if (lw.dry) return nullptr;
    const Kernel kernel = pick_kernel(conv->weight(), lw.opts);
    // Conv structures keep per-row scales on every path.
    const sparse::Precision precision =
        pick_precision(conv->weight(), kernel, /*uniform_error=*/false, lw);
    return std::make_unique<ConvOp>(*conv, kernel, precision, event, lw.opts);
  }
  if (const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(&layer)) {
    lw.now_dense();  // the affine shift makes zeros non-zero
    if (lw.dry) return nullptr;
    return std::make_unique<BatchNormOp>(*bn);
  }
  if (const auto* lif = dynamic_cast<const nn::LifActivation*>(&layer)) {
    lw.now_spiking(lif->last_spike_rate());
    if (lw.dry) return nullptr;
    return std::make_unique<LifOp>(lif->name(), lif->lif().config(),
                                   lif->lif().timesteps(), lw.emit_events);
  }
  if (const auto* plif = dynamic_cast<const nn::PlifActivation*>(&layer)) {
    // PLIF at inference is a LIF with the trained leak alpha = sigmoid(a).
    snn::LifConfig cfg;
    cfg.alpha = plif->plif().alpha();
    cfg.threshold = plif->plif().config().threshold;
    lw.now_spiking(plif->last_spike_rate());
    if (lw.dry) return nullptr;
    return std::make_unique<LifOp>(plif->name(), cfg, plif->plif().timesteps(),
                                   lw.emit_events);
  }
  if (const auto* alif = dynamic_cast<const nn::AlifActivation*>(&layer)) {
    lw.now_spiking(alif->last_spike_rate());
    if (lw.dry) return nullptr;
    return std::make_unique<AlifOp>(alif->name(), alif->alif().config(),
                                    alif->alif().timesteps(), lw.emit_events);
  }
  if (const auto* avg = dynamic_cast<const nn::AvgPool2d*>(&layer)) {
    lw.pooled(avg->k());
    if (lw.dry) return nullptr;
    return std::make_unique<AvgPoolOp>(avg->name(), avg->k());
  }
  if (const auto* max = dynamic_cast<const nn::MaxPool2d*>(&layer)) {
    lw.pooled(max->k());
    if (lw.dry) return nullptr;
    return std::make_unique<MaxPoolOp>(max->name(), max->k());
  }
  if (dynamic_cast<const nn::GlobalAvgPool*>(&layer) != nullptr) {
    lw.now_dense();  // whole-plane averages are rarely exactly zero
    if (lw.dry) return nullptr;
    return std::make_unique<GlobalAvgPoolOp>();
  }
  if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
    if (lw.dry) return nullptr;
    return std::make_unique<FlattenOp>();  // spiking-ness passes through
  }
  if (const auto* res = dynamic_cast<const nn::ResidualBlock*>(&layer)) {
    // Both chains fork off the same incoming activation state.
    const bool in_spiking = lw.spiking;
    const double in_rate = lw.rate;
    auto main = compile_chain(
        {&res->conv1(), &res->bn1(), &res->lif1(), &res->conv2(), &res->bn2()}, lw);
    lw.spiking = in_spiking;
    lw.rate = in_rate;
    auto shortcut = compile_chain({res->shortcut_conv(), res->shortcut_bn()}, lw);
    // The output LIF consumes main + shortcut (dense sums).
    lw.now_dense();
    auto out_lif = compile_layer(res->lif_out(), lw);
    if (lw.dry) return nullptr;
    return std::make_unique<ResidualOp>(res->name(), std::move(main), std::move(shortcut),
                                        std::move(out_lif));
  }
  throw std::invalid_argument("CompiledNetwork: cannot lower layer '" + layer.name() + "'");
}

}  // namespace

const char* weight_precision_name(WeightPrecision p) {
  switch (p) {
    case WeightPrecision::kAuto: return "auto";
    case WeightPrecision::kFp32: return "fp32";
    case WeightPrecision::kInt8: return "int8";
  }
  return "?";
}

WeightPrecision parse_weight_precision(const std::string& s) {
  if (s == "auto") return WeightPrecision::kAuto;
  if (s == "fp32") return WeightPrecision::kFp32;
  if (s == "int8") return WeightPrecision::kInt8;
  throw std::invalid_argument("parse_weight_precision: expected auto|fp32|int8, got '" + s +
                              "'");
}

CompiledNetwork CompiledNetwork::compile(const nn::SpikingNetwork& net,
                                         const CompileOptions& opts) {
  if (opts.min_sparsity < 0.0 || opts.min_sparsity > 1.0) {
    throw std::invalid_argument("CompiledNetwork: min_sparsity must be in [0, 1]");
  }
  if (opts.prune_threshold < 0.0F) {
    // Reject up front: under kAuto a negative threshold would otherwise
    // measure every layer as fully dense and silently compile no sparse
    // kernels at all, instead of failing in Csr::from_dense.
    throw std::invalid_argument("CompiledNetwork: prune_threshold must be >= 0");
  }
  if (opts.event_max_rate < 0.0 || opts.event_max_rate > 1.0 ||
      opts.firing_rate_estimate < 0.0 || opts.firing_rate_estimate > 1.0) {
    throw std::invalid_argument(
        "CompiledNetwork: event_max_rate and firing_rate_estimate must be in [0, 1]");
  }
  if (opts.quant_max_error < 0.0) {
    throw std::invalid_argument("CompiledNetwork: quant_max_error must be >= 0");
  }
  if (dynamic_cast<const snn::DirectEncoder*>(&net.encoder()) == nullptr) {
    throw std::invalid_argument(
        "CompiledNetwork: only direct encoding is supported (encoder '" +
        std::string(net.encoder().name()) + "')");
  }
  CompiledNetwork compiled;
  compiled.plan_.timesteps = net.timesteps();
  const nn::Sequential& body = net.body();
  // Stage 1 (dry): walk the dataflow state to learn whether any weight
  // layer picks the event path. Stage 2 builds the ops; neuron ops emit
  // SpikeBatch views only when stage 1 found a consumer for them.
  Lowering dry_walk(opts);
  dry_walk.dry = true;
  for (std::size_t i = 0; i < body.size(); ++i) {
    (void)compile_layer(body.layer(i), dry_walk);
  }
  Lowering lw(opts);
  lw.emit_events = dry_walk.any_event;
  for (std::size_t i = 0; i < body.size(); ++i) {
    compiled.plan_.ops.push_back(compile_layer(body.layer(i), lw));
    compiled.plan_.reports.push_back(compiled.plan_.ops.back()->report());
  }
  compiled.plan_.estimated_spike_rate = lw.stats.average_rate();
  compiled.plan_.profile = std::make_shared<PlanProfile>(compiled.plan_.reports);
  return compiled;
}

CompiledNetwork CompiledNetwork::from_checkpoint(const std::string& path,
                                                 const CompileOptions& opts) {
  // The architecture-tagged checkpoint rebuilds its own zoo network; the
  // caller only ever sees the compiled plan. The freshly-built network
  // has no recorded firing rates, so kAuto activation decisions run on
  // CompileOptions::firing_rate_estimate.
  nn::QuantRecord record;
  const auto net = nn::load_checkpoint_network(path, &record);
  // A v3 quantisation record pins the deployed per-layer precisions;
  // it applies under kAuto (explicit fp32/int8 always wins), and
  // caller-supplied overrides are respected.
  if (opts.weight_precision == WeightPrecision::kAuto && opts.layer_precisions.empty() &&
      !record.layers.empty()) {
    CompileOptions effective = opts;
    effective.layer_precisions.reserve(record.layers.size());
    for (const nn::QuantRecordLayer& layer : record.layers) {
      effective.layer_precisions.push_back(layer.precision);
    }
    return compile(*net, effective);
  }
  return compile(*net, opts);
}

InferenceResult CompiledNetwork::infer(const InferenceRequest& request) const {
  const Tensor& batch = request.batch;
  if (batch.rank() < 2) {
    throw std::invalid_argument("CompiledNetwork::infer: expected [N, ...], got " +
                                batch.shape().str());
  }
  const auto start = std::chrono::steady_clock::now();
  // Direct encoding (compile() rejected every other encoder kind).
  snn::DirectEncoder encoder;
  const Tensor x = plan_.execute(encoder.encode(batch, plan_.timesteps));
  if (x.rank() != 2) {
    throw std::invalid_argument("CompiledNetwork::infer: body produced non-matrix logits " +
                                x.shape().str());
  }
  InferenceResult result;
  result.logits = nn::mean_over_time(x, plan_.timesteps);
  result.latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

Tensor CompiledNetwork::run(const Tensor& batch) const {
  return infer({batch, SloClass::kInteractive}).logits;
}

std::vector<int64_t> CompiledNetwork::classify(const Tensor& batch) const {
  return tensor::argmax_rows(run(batch));
}

}  // namespace ndsnn::runtime
