// Differential / property test harness for the inference runtime.
//
// The runtime has two kernel backends (dense / CSR) and three
// activation modes (auto / dense / event-driven) chosen per layer by
// cost heuristics, which is far too many combinations for hand-written
// cases. This header generates randomized network configurations
// (architecture x sparsity x N:M pattern x batch/timestep shapes x
// input regime, including all-silent and all-firing extremes) from a
// seeded RNG and checks that CompiledNetwork reproduces the interpreted
// SpikingNetwork::predict *bitwise* on every backend x activation-mode
// pair — the compiled ops mirror the interpreted arithmetic term for
// term (skipped zero-activation terms are exact no-ops), so any drift
// at all is a lowering bug, not roundoff.
//
// Reproducibility: every randomized test derives from env_seed(), which
// reads NDSNN_TEST_SEED (decimal) and logs it; a failing CI run prints
// the seed and the offending NetConfig, and exporting the same seed
// locally replays the identical sequence.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "../testing_env.hpp"
#include "core/nm_projection.hpp"
#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "snn/encoder.hpp"
#include "sparse/mask.hpp"
#include "sparse/quant.hpp"
#include "sparse/structured.hpp"
#include "tensor/random.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::difftest {

/// Input regime of a scenario. Beyond the uniform-random default, the
/// firing-rate extremes matter to the event-driven path: an all-zero
/// batch keeps every spike train silent (empty SpikeBatch views,
/// n_active == 0 kernels), a saturated batch drives LIF layers to fire
/// on every step (event path degenerates to full gather).
enum class InputKind { kRandom, kSilent, kSaturated };

inline const char* input_kind_name(InputKind k) {
  switch (k) {
    case InputKind::kRandom: return "random";
    case InputKind::kSilent: return "silent";
    case InputKind::kSaturated: return "saturated";
  }
  return "?";
}

/// One randomized network scenario. str() is attached to every failure
/// message so a red run identifies the exact configuration.
struct NetConfig {
  std::string arch = "lenet5";
  int64_t image = 12;
  int64_t channels = 1;
  int64_t batch = 2;
  int64_t timesteps = 2;
  double width_scale = 1.0;
  double sparsity = 0.9;  ///< unstructured mask fraction (before projection)
  int64_t nm_n = 0;       ///< 0 = no N:M projection
  int64_t nm_m = 0;
  double block_keep = 0.0;  ///< > 0: 4x4 block mask keeping this fraction of
                            ///< blocks (the row-block pattern of FPGA SNN
                            ///< accelerators); applied instead of the
                            ///< unstructured mask
  InputKind input = InputKind::kRandom;
  uint64_t seed = 1;

  [[nodiscard]] std::string str() const {
    std::string s = "arch=" + arch + " image=" + std::to_string(image) +
                    " ch=" + std::to_string(channels) + " batch=" + std::to_string(batch) +
                    " T=" + std::to_string(timesteps) +
                    " ws=" + std::to_string(width_scale) +
                    " sparsity=" + std::to_string(sparsity);
    if (nm_m > 0) s += " nm=" + std::to_string(nm_n) + ":" + std::to_string(nm_m);
    if (block_keep > 0.0) s += " block_keep=" + std::to_string(block_keep);
    s += " input=" + std::string(input_kind_name(input)) + " seed=" + std::to_string(seed);
    return s;
  }
};

/// Draw a scenario: mostly LeNets (cheap), with VGG/ResNet sprinkled in
/// to cover conv stacks, BN folding, pooling variants and residuals.
inline NetConfig random_config(tensor::Rng& rng) {
  NetConfig cfg;
  const double arch_roll = rng.uniform01();
  if (arch_roll < 0.70) {
    cfg.arch = "lenet5";
    cfg.image = 4 * (2 + rng.uniform_int(3));  // 8 | 12 | 16
    cfg.channels = rng.bernoulli(0.5) ? 1 : 3;
    cfg.width_scale = rng.bernoulli(0.5) ? 1.0 : 0.5;
  } else if (arch_roll < 0.85) {
    cfg.arch = "vgg16";
    cfg.image = 32;
    cfg.channels = 3;
    cfg.width_scale = 0.0625;
  } else {
    cfg.arch = "resnet19";
    cfg.image = 16;
    cfg.channels = 3;
    cfg.width_scale = 0.0625;
  }
  cfg.batch = 1 + rng.uniform_int(3);
  cfg.timesteps = 1 + rng.uniform_int(3);
  // 0.3 sits below the default min_sparsity so the auto heuristic keeps
  // those layers dense; the rest exercise the sparse kernels.
  const double sparsities[] = {0.3, 0.5, 0.8, 0.9, 0.95};
  cfg.sparsity = sparsities[rng.uniform_int(5)];
  if (rng.bernoulli(0.1)) {  // blocky deployment flavour
    cfg.block_keep = 0.25;
    cfg.sparsity = 0.0;
  } else if (rng.bernoulli(0.6)) {  // structured N:M deployment flavour
    const int64_t patterns[][2] = {{2, 4}, {1, 4}, {2, 8}, {4, 8}};
    const int64_t pick = rng.uniform_int(4);
    cfg.nm_n = patterns[pick][0];
    cfg.nm_m = patterns[pick][1];
  }
  // Mostly uniform-random inputs, with the firing-rate extremes mixed in
  // so the event path's empty-active-list and full-gather branches stay
  // exercised at every sweep size.
  const double input_roll = rng.uniform01();
  cfg.input = input_roll < 0.85   ? InputKind::kRandom
              : input_roll < 0.93 ? InputKind::kSilent
                                  : InputKind::kSaturated;
  cfg.seed = rng.next_u64() >> 1;
  return cfg;
}

/// Zero out a fraction of every prunable weight tensor, like the
/// sparse-training methods leave the network after convergence.
inline void apply_random_masks(nn::SpikingNetwork& net, double sparsity, uint64_t seed) {
  tensor::Rng rng(seed);
  for (const auto& p : net.params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(
        static_cast<double>(p.value->numel()) * (1.0 - sparsity));
    const sparse::Mask mask(p.value->shape(), active, rng);
    mask.apply(*p.value);
  }
}

/// Zero random 4x4 blocks of every prunable weight's lowered 2-D form,
/// keeping `keep` of them — the row-block pattern of FPGA SNN
/// accelerators. The compiler lowers it like any other mask (CSR at or
/// above min_sparsity); it keeps the kernels covered on runs of zeros
/// that unstructured masks rarely produce.
inline void apply_block_masks(nn::SpikingNetwork& net, double keep, uint64_t seed) {
  tensor::Rng rng(seed);
  for (const auto& p : net.params()) {
    if (!p.prunable) continue;
    const int64_t rows = p.value->dim(0);
    const int64_t cols = p.value->numel() / rows;
    float* w = p.value->data();
    for (int64_t rb = 0; rb < rows; rb += 4) {
      for (int64_t cb = 0; cb < cols; cb += 4) {
        if (rng.uniform01() < keep) continue;
        for (int64_t r = rb; r < std::min(rb + 4, rows); ++r) {
          for (int64_t c = cb; c < std::min(cb + 4, cols); ++c) w[r * cols + c] = 0.0F;
        }
      }
    }
  }
}

/// One training step to make BatchNorm running statistics non-trivial,
/// so equivalence checks exercise the real eval path. train_step only
/// accumulates gradients (no optimizer), so masks/projections survive.
inline void warm_up(nn::SpikingNetwork& net, const tensor::Tensor& batch) {
  std::vector<int64_t> labels(static_cast<std::size_t>(batch.dim(0)), 0);
  (void)net.train_step(batch, labels);
}

/// Input batch [batch, channels, image, image]: uniform [0, 1) for the
/// random regime, all zeros for silent (no layer ever fires), large
/// positive currents for saturated (LIF layers fire every step).
inline tensor::Tensor random_batch(const NetConfig& cfg, uint64_t salt = 0) {
  tensor::Rng rng(cfg.seed ^ (0x9E3779B97F4A7C15ULL + salt));
  tensor::Tensor batch(tensor::Shape{cfg.batch, cfg.channels, cfg.image, cfg.image});
  switch (cfg.input) {
    case InputKind::kRandom:
      batch.fill_uniform(rng, 0.0F, 1.0F);
      break;
    case InputKind::kSilent:
      break;  // stays zero
    case InputKind::kSaturated:
      batch.fill_uniform(rng, 4.0F, 8.0F);
      break;
  }
  return batch;
}

/// Build the scenario's network: zoo model -> unstructured mask ->
/// optional N:M projection -> BN warm-up step.
inline std::unique_ptr<nn::SpikingNetwork> build_network(const NetConfig& cfg) {
  nn::ModelSpec spec;
  spec.in_channels = cfg.channels;
  spec.image_size = cfg.image;
  spec.timesteps = cfg.timesteps;
  spec.width_scale = cfg.width_scale;
  spec.seed = cfg.seed;
  auto net = nn::make_model(cfg.arch, spec);
  if (cfg.block_keep > 0.0) {
    apply_block_masks(*net, cfg.block_keep, cfg.seed + 1);
  } else {
    apply_random_masks(*net, cfg.sparsity, cfg.seed + 1);
  }
  if (cfg.nm_m > 0) {
    (void)core::project_network_nm(*net, {cfg.nm_n, cfg.nm_m});
  }
  warm_up(*net, random_batch(cfg, /*salt=*/1));
  return net;
}

/// CompileOptions for one backend x activation-mode cell of the sweep.
inline runtime::CompileOptions options_for(
    runtime::Backend backend = runtime::Backend::kAuto,
    runtime::ActivationMode activation = runtime::ActivationMode::kAuto) {
  runtime::CompileOptions opts;
  opts.backend = backend;
  opts.activation_mode = activation;
  return opts;
}

/// Bitwise tensor equality; on the first mismatch reports the flat index
/// and both float values at full precision, then stops.
inline void expect_bitwise(const tensor::Tensor& got, const tensor::Tensor& want,
                           const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(got.at(i), want.at(i))
        << context << " diverges at flat index " << i << " (got "
        << std::hexfloat << got.at(i) << ", want " << want.at(i) << std::defaultfloat << ")";
  }
}

/// All backends the differential sweep exercises.
inline const std::vector<runtime::Backend>& all_backends() {
  static const std::vector<runtime::Backend> kBackends = {
      runtime::Backend::kAuto, runtime::Backend::kDense, runtime::Backend::kCsr};
  return kBackends;
}

inline const char* backend_name(runtime::Backend b) {
  switch (b) {
    case runtime::Backend::kAuto: return "auto";
    case runtime::Backend::kDense: return "dense";
    case runtime::Backend::kCsr: return "csr";
  }
  return "?";
}

/// All activation modes the differential sweep crosses with the
/// backends: the heuristic, the dense-activation spmm path, and the
/// forced event-driven gather path.
inline const std::vector<runtime::ActivationMode>& all_activation_modes() {
  static const std::vector<runtime::ActivationMode> kModes = {
      runtime::ActivationMode::kAuto, runtime::ActivationMode::kDense,
      runtime::ActivationMode::kEvent};
  return kModes;
}

inline const char* activation_name(runtime::ActivationMode m) {
  switch (m) {
    case runtime::ActivationMode::kAuto: return "auto";
    case runtime::ActivationMode::kDense: return "dense";
    case runtime::ActivationMode::kEvent: return "event";
  }
  return "?";
}

// ------------------------------------------------------------------
// Kernel-tier axis.
//
// The SIMD tiers (util/cpuinfo.hpp) promise that fp32 execution is
// bitwise identical whichever tier dispatches — the intrinsic bodies
// replicate the scalar accumulation order exactly. The sweep enforces
// that promise by re-compiling scenarios with CompileOptions::
// kernel_tier forced below the detected tier and comparing against the
// same interpreted reference: the default (kAuto) compile already
// exercises the *detected* tier, so forcing kScalar covers every tier
// the machine can run. On a machine without AVX2 the detected tier is
// kScalar and the axis degenerates to re-checking the portable
// kernels, which is the correct behaviour, not a gap.

/// Tiers the sweep forces explicitly on top of the default compile.
inline const std::vector<util::simd::Tier>& forced_kernel_tiers() {
  static const std::vector<util::simd::Tier> kTiers = {util::simd::Tier::kScalar};
  return kTiers;
}

// ------------------------------------------------------------------
// Precision axis.
//
// Quantised execution (CompileOptions::weight_precision) deliberately
// breaks the bitwise contract: the kernels reassociate and promise only
// a bounded error. An SNN's *logits* are not a sound place to assert
// that bound — quantising a weight can move a membrane potential across
// the firing threshold, and one flipped spike shifts a logit by a whole
// synapse weight, so any fixed end-to-end tolerance is either vacuous
// or flaky. The sweep therefore compares *per op, in lockstep*: the
// quantised plan against a CompileOptions::fake_quant reference plan —
// same precision, but the plane is dequantised back to fp32 storage at
// compile time, so the reference executes the quantised plan's *exact*
// effective weights (per CSR row, or per transposed row on the event
// path) on the bitwise fp32 kernels.
// Both plans run every op on the *same* input (the reference op's
// output). Weight-op differences are then pure kernel reassociation,
// orders of magnitude inside the documented 1e-2 int8 tolerance, and
// neuron ops see identical inputs, so no spike can flip: the check is
// deterministic, tight, and immune to threshold cliffs. The tolerances'
// relationship to *fp32* weights is pinned at the kernel level by
// tests/sparse/quant_test.cpp (analytic bound + the documented spike
// regime).

/// Documented per-op max-abs tolerance of an int8 plan against the fp32
/// plan sharing its effective weights.
inline constexpr double kQuantTolerance = 1e-2;

/// Run two structurally-identical plans op by op on the same inputs and
/// assert every op's output stays within `tol` max-abs. The reference
/// plan's activation feeds *both* next ops, so errors never compound
/// and neuron ops (identical code, identical input) cannot diverge.
inline void expect_lockstep_close(const runtime::Plan& quant, const runtime::Plan& fp32,
                                  tensor::Tensor encoded, double tol,
                                  const std::string& context) {
  ASSERT_EQ(quant.ops.size(), fp32.ops.size()) << context;
  runtime::Activation x(std::move(encoded));
  for (std::size_t i = 0; i < fp32.ops.size(); ++i) {
    const runtime::Activation got = quant.ops[i]->run(x);
    runtime::Activation want = fp32.ops[i]->run(x);
    ASSERT_EQ(got.tensor.shape(), want.tensor.shape())
        << context << " op " << i << " (" << fp32.reports[i].kind << ")";
    for (int64_t e = 0; e < want.tensor.numel(); ++e) {
      ASSERT_LE(std::fabs(got.tensor.at(e) - want.tensor.at(e)), tol)
          << context << " op " << i << " (" << fp32.reports[i].kind
          << ") diverges at flat index " << e << " (got " << got.tensor.at(e) << ", want "
          << want.tensor.at(e) << ")";
    }
    x = std::move(want);
  }
}

}  // namespace ndsnn::difftest
