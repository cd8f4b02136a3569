// CompiledNetwork: ahead-of-time compilation of a trained (masked)
// SpikingNetwork into an immutable sparse inference plan.
//
// Training keeps weights dense and re-applies binary masks after every
// optimizer step, so a "95% sparse" network still runs dense GEMM over
// mostly-zero matrices — and its spike trains, typically 5-20% ones,
// still multiply through as dense activation tensors. compile() is a
// staged lowering that exploits both sides of every matmul:
//
//   1. Walk the network body and pick a *weight kernel* per layer:
//      dense GEMM below CompileOptions::min_sparsity, element-wise CSR
//      at or above it (unstructured and N:M-projected masks alike).
//   2. Pick an *activation path* per weight layer: the classic
//      dense-activation spmm, or the event-driven gather path that
//      iterates only the active (nonzero) entries of the input spike
//      train (sparse::Csr::spmv_gather, plus an on-the-fly
//      event-driven im2col for conv). The choice keys on whether the
//      input is spike-valued and on a firing-rate estimate taken from
//      the layers' recorded rates (aggregated with snn::SpikeStats);
//      CompileOptions::activation_mode forces one path everywhere.
//   3. Emit the Plan IR (src/runtime/plan.hpp): per-op kernels under
//      src/runtime/ops/, with neuron ops producing SpikeBatch
//      active-index views alongside their spike tensors so downstream
//      event ops skip even the nonzero scan.
//
// Every path — any backend x any activation mode — produces bitwise
// identical logits to the interpreted SpikingNetwork::predict: linear
// kernels accumulate per output in doubles over ascending input index,
// conv kernels in floats over ascending patch-column index, and skipped
// zero-activation terms are exact no-ops (tests/runtime/testing.hpp
// pins this across the full differential matrix).
//
// The resulting plan is immutable and shares no mutable state across
// run() calls, so one CompiledNetwork can serve many threads concurrently
// (see runtime::BatchExecutor). Neuron membrane state lives on the stack
// of each run(): activations are time-major [T*N, ...] and the LIF op
// carries v/o across the T timesteps inside one call, exactly like
// snn::LifLayer::forward.
#pragma once

#include <string>
#include <vector>

#include "nn/network.hpp"
#include "runtime/inference.hpp"
#include "runtime/plan.hpp"
#include "runtime/trace.hpp"
#include "sparse/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::runtime {

/// Which GEMM kernel a weight layer executes with.
enum class Backend {
  kAuto,   ///< per-layer cost heuristic (weight sparsity)
  kDense,  ///< force dense GEMM everywhere (baseline plans)
  kCsr,    ///< force element-wise CSR on every weight layer
};

/// How weight layers consume their input activation.
enum class ActivationMode {
  kAuto,   ///< event-driven when the input is spike-valued and its
           ///< estimated firing rate is <= event_max_rate
  kDense,  ///< always the dense-activation spmm path (PR-2 behaviour)
  kEvent,  ///< force the event-driven gather path on every weight layer
};

/// Stored bit width of the sparse weight value planes (Sec. III-D).
/// Dense-kernel layers always execute fp32 — the quantised planes live
/// on sparse::Csr — so a forced kInt8 applies to every *sparse* weight
/// layer and leaves dense fallbacks untouched.
enum class WeightPrecision {
  kAuto,   ///< per layer: int8 when its measured weight reconstruction
           ///< error stays <= quant_max_error, else fp32; a v3
           ///< checkpoint's recorded per-layer precisions win when
           ///< compiling via from_checkpoint
  kFp32,   ///< no quantisation (default: keeps the bitwise contract)
  kInt8,
};

[[nodiscard]] const char* weight_precision_name(WeightPrecision p);
/// Parse "auto" | "fp32" | "int8" (CLI surface); throws
/// std::invalid_argument otherwise.
[[nodiscard]] WeightPrecision parse_weight_precision(const std::string& s);

/// Kernel/backend selection knobs: which storage format and GEMM kernel
/// each weight layer lowers onto. One of the three groups CompileOptions
/// aggregates (serve_sparse --help mirrors this grouping).
struct BackendOptions {
  /// kAuto lowers a weight layer to a sparse kernel when its weight
  /// sparsity is >= this. Below it, the dense GEMM wins (sparse formats
  /// pay indexing overhead per value).
  double min_sparsity = 0.5;
  /// Entries with |w| <= prune_threshold are dropped when building
  /// sparse kernels (forwarded to sparse::Csr::from_weights) and do not
  /// count as nonzeros in the min_sparsity test.
  float prune_threshold = 0.0F;
  /// Force one kernel backend for every weight layer, or kAuto to let
  /// the cost heuristic decide per layer.
  Backend backend = Backend::kAuto;
};

/// Weight quantisation knobs: stored bit width of the sparse value
/// planes and the calibration that picks it per layer.
struct QuantOptions {
  /// Stored bit width of the sparse value planes (see WeightPrecision).
  /// Anything other than kFp32 trades the bitwise-vs-predict contract
  /// for the documented quantisation error bound (README, runtime
  /// precision section).
  WeightPrecision weight_precision = WeightPrecision::kFp32;
  /// kAuto precision bar: quantise a layer only when its per-row
  /// symmetric reconstruction error (max |dequant - w| / max |w|,
  /// sparse::relative_quant_error) stays at or under this. The default
  /// 0.02 admits int8 everywhere (~0.4% per-row error).
  double quant_max_error = 0.02;
  /// kAuto only: per-weight-layer precision overrides in body order
  /// (the order Plan::reports lists weight ops, == the order of
  /// prunable parameters). from_checkpoint fills this from a v3
  /// checkpoint's quantisation record; layers beyond the vector fall
  /// back to the error-bound heuristic.
  std::vector<sparse::Precision> layer_precisions;
  /// Fake-quant evaluation: quantise each sparse value plane, then
  /// dequantise it back to fp32 storage, so the plan executes the
  /// *exact effective weights* of the quantised deployment on the
  /// bitwise fp32 kernels (QAT-style accuracy evaluation; the
  /// differential harness's per-op reference plans). Reports still
  /// carry the nominal precision; bytes reflect the fp32 storage the
  /// fake plan actually holds.
  bool fake_quant = false;
};

/// Execution knobs: how the lowered plan runs — activation path and
/// SIMD tier.
struct ExecOptions {
  /// Activation path selection (see ActivationMode).
  ActivationMode activation_mode = ActivationMode::kAuto;
  /// kAuto goes event-driven when the estimated firing rate of a weight
  /// layer's spike-valued input is <= this. Calibrated with
  /// bench/activation_sparsity: the gather kernels beat dense-activation
  /// CSR below ~0.25-0.3 firing and win >2x at <=0.1.
  double event_max_rate = 0.25;
  /// Fallback input-rate estimate for spike-valued activations when the
  /// source network has no recorded firing rates (e.g. compiled straight
  /// from a checkpoint, before any forward pass ran). Typical LIF/PLIF/
  /// ALIF layers fire 5-20% of the time.
  double firing_rate_estimate = 0.15;
  /// SIMD kernel tier every weight op dispatches with (resolved once at
  /// compile time via util::simd::resolve, so a plan's execution is
  /// reproducible regardless of later NDSNN_KERNEL_TIER / force()
  /// changes). kAuto takes the detected tier; explicit tiers clamp to
  /// it (requesting kAvx2 on a non-AVX2 host runs kScalar, never
  /// SIGILLs). fp32 results are bitwise identical across tiers, so this
  /// is purely a performance knob — pin kScalar to reproduce the
  /// reference kernels.
  util::simd::Tier kernel_tier = util::simd::Tier::kAuto;
};

/// Knobs for the network -> plan lowering, grouped by concern:
/// BackendOptions (kernel/format selection), QuantOptions (stored bit
/// widths), ExecOptions (activation path, SIMD tier). The bases keep
/// member access flat — `opts.min_sparsity`, `opts.kernel_tier` etc.
/// compile exactly as before the grouping — and aggregate init takes
/// one brace list per group:
///
///   CompileOptions o{{.min_sparsity = 0.9}, {}, {.event_max_rate = 0.1}};
///
/// Group views (backend_opts() etc.) hand a whole group to code that
/// only cares about one concern.
struct CompileOptions : BackendOptions, QuantOptions, ExecOptions {
  [[nodiscard]] BackendOptions& backend_opts() { return *this; }
  [[nodiscard]] const BackendOptions& backend_opts() const { return *this; }
  [[nodiscard]] QuantOptions& quant_opts() { return *this; }
  [[nodiscard]] const QuantOptions& quant_opts() const { return *this; }
  [[nodiscard]] ExecOptions& exec_opts() { return *this; }
  [[nodiscard]] const ExecOptions& exec_opts() const { return *this; }
};

class CompiledNetwork {
 public:
  /// Lower `net` (its body and current weights) into an executable plan.
  /// Weights are copied: later training steps do not affect the plan.
  /// Throws std::invalid_argument for layers the runtime cannot lower or
  /// when the network uses a non-direct input encoder.
  [[nodiscard]] static CompiledNetwork compile(const nn::SpikingNetwork& net,
                                               const CompileOptions& opts = {});

  /// Compile straight from an architecture-tagged checkpoint file
  /// (nn::save_checkpoint with CheckpointMeta, format v2): rebuilds the
  /// recorded zoo architecture internally, restores every parameter
  /// (BN statistics included) and lowers it — the caller never touches a
  /// training network. Throws std::runtime_error for v1 checkpoints
  /// (no architecture record) or on any parameter mismatch.
  [[nodiscard]] static CompiledNetwork from_checkpoint(const std::string& path,
                                                       const CompileOptions& opts = {});

  /// One-shot inference through the consolidated request/result pair
  /// (runtime/inference.hpp) — the same vocabulary the batched
  /// (BatchExecutor::submit) and streaming (StreamSession::step) paths
  /// speak. Mean logits over `timesteps()` of direct encoding, matching
  /// SpikingNetwork::predict; `latency_ms` is the call's wall time, the
  /// SLO class is ignored (no queue on the direct path). Thread-safe.
  [[nodiscard]] InferenceResult infer(const InferenceRequest& request) const;

  /// Mean logits [N, classes] for a static input batch [N, ...]. Thin
  /// wrapper over infer() for callers that only want the tensor — the
  /// original PR-2 signature. Thread-safe.
  [[nodiscard]] tensor::Tensor run(const tensor::Tensor& batch) const;

  /// argmax class per sample. Thread-safe.
  [[nodiscard]] std::vector<int64_t> classify(const tensor::Tensor& batch) const;

  /// Per-op reports of the compiled plan.
  [[nodiscard]] const std::vector<OpReport>& plan() const { return plan_.reports; }
  /// The full plan IR, ops included — what the differential harness
  /// walks to compare two plans op by op (run() stays the serving API).
  [[nodiscard]] const Plan& plan_ir() const { return plan_; }
  [[nodiscard]] int64_t timesteps() const { return plan_.timesteps; }
  /// Compile-time mean firing-rate estimate over the spiking layers
  /// (recorded rates where available, CompileOptions fallback otherwise).
  [[nodiscard]] double estimated_spike_rate() const { return plan_.estimated_spike_rate; }

  /// Toggle per-op profiling (durations + observed firing rates folded
  /// into the plan's PlanProfile on every run). Off by default; while
  /// off, run() takes the uninstrumented fast path. Safe to flip while
  /// other threads are serving. Const: profiling observes execution,
  /// it never changes what is computed.
  void enable_profiling(bool on) const {
    if (plan_.profile) plan_.profile->set_enabled(on);
  }
  [[nodiscard]] bool profiling_enabled() const {
    return plan_.profile && plan_.profile->enabled();
  }
  /// Measured per-op stats since compile (or the last profile_reset()):
  /// p50/p95/mean latency, run/row counts, EMA firing rate. All zeros /
  /// -1 rates until profiling ran enabled.
  [[nodiscard]] std::vector<PlanProfile::OpStats> profile() const {
    return plan_.profile ? plan_.profile->snapshot() : std::vector<PlanProfile::OpStats>{};
  }
  /// Plan runs recorded by the profile.
  [[nodiscard]] int64_t profiled_executes() const {
    return plan_.profile ? plan_.profile->executes() : 0;
  }
  void profile_reset() const {
    if (plan_.profile) plan_.profile->reset();
  }

  /// Weight elements stored by the plan (CSR nnz + dense fallback sizes).
  [[nodiscard]] int64_t stored_weights() const { return plan_.stored_weights(); }
  /// Bytes the plan's weight structures occupy (quantised planes included).
  [[nodiscard]] int64_t stored_bytes() const { return plan_.stored_bytes(); }
  /// Parameter-weighted sparsity over all weight ops.
  [[nodiscard]] double overall_sparsity() const { return plan_.overall_sparsity(); }
  /// Multi-line human-readable description of the plan.
  [[nodiscard]] std::string summary() const { return plan_.summary(); }

  CompiledNetwork(CompiledNetwork&&) = default;
  CompiledNetwork& operator=(CompiledNetwork&&) = default;

 private:
  CompiledNetwork() = default;

  Plan plan_;
};

}  // namespace ndsnn::runtime
