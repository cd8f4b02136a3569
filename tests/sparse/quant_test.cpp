// Quantised value planes: code round-trips and the error contract of
// every quantised kernel (spmm / spmm_t / spmv_gather / scatter_row).
//
// The contract under test (sparse/quant.hpp): each reconstructed value
// is within scale/2 of its fp32 source, so a quantised kernel output
// differs from the fp32 kernel by at most sum_k (scale_k / 2) * |x_k|
// over the terms it accumulates — a *provable* per-output bound, so
// these randomized checks can run from the CI-varied env seed without
// ever being flaky. The absolute 1e-2 int8 tolerance the runtime
// documents is asserted on the pinned-regime scenario it is stated for
// (binary spikes, LeNet-scale fc1 weights, fixed seed).
#include "sparse/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../testing_env.hpp"
#include "sparse/csr.hpp"
#include "tensor/random.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor random_masked(int64_t rows, int64_t cols, double sparsity, Rng& rng,
                     float amp = 0.5F) {
  Tensor w(Shape{rows, cols});
  w.fill_uniform(rng, -amp, amp);
  for (int64_t i = 0; i < w.numel(); ++i) {
    if (rng.uniform01() < sparsity) w.at(i) = 0.0F;
  }
  return w;
}

Tensor spike_input(int64_t rows, int64_t cols, double rate, Rng& rng) {
  Tensor x(Shape{rows, cols});
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (rng.uniform01() < rate) x.at(i) = 1.0F;
  }
  return x;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  float worst = 0.0F;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(a.at(i) - b.at(i)));
  }
  return worst;
}

TEST(QuantPlaneTest, CodesRoundTripWithinHalfScale) {
  Rng rng(difftest::env_seed() ^ 0xDEC0DE01ULL);
  std::vector<float> values;
  std::vector<int64_t> group_ptr = {0};
  for (int g = 0; g < 17; ++g) {
    const int64_t count = rng.uniform_int(9);  // includes empty groups
    for (int64_t i = 0; i < count; ++i) {
      // Mix of zeros (pruned entries) and values on varied ranges.
      values.push_back(rng.bernoulli(0.3) ? 0.0F
                                          : static_cast<float>(rng.uniform01() * 2.0 - 1.0));
    }
    group_ptr.push_back(static_cast<int64_t>(values.size()));
  }
  float reported_err = -1.0F;
  const QuantPlane plane =
      quantize_grouped(values.data(), group_ptr.data(),
                       static_cast<int64_t>(group_ptr.size()) - 1, Precision::kInt8,
                       &reported_err);
  ASSERT_TRUE(plane.present());
  EXPECT_EQ(plane.value_count, static_cast<int64_t>(values.size()));
  float worst = 0.0F;
  for (std::size_t g = 0; g + 1 < group_ptr.size(); ++g) {
    const float bound = plane.scale[g] * 0.5F + 1e-6F;
    for (int64_t k = group_ptr[g]; k < group_ptr[g + 1]; ++k) {
      const float v = values[static_cast<std::size_t>(k)];
      const float dq = plane.dequant(static_cast<int64_t>(g), k);
      EXPECT_LE(std::fabs(dq - v), bound) << "group " << g;
      if (v == 0.0F) {
        // Pruned entries must reconstruct exactly (code 0).
        EXPECT_EQ(dq, 0.0F);
      }
      worst = std::max(worst, std::fabs(dq - v));
    }
  }
  EXPECT_FLOAT_EQ(reported_err, worst);
}

TEST(QuantPlaneTest, ParseAndTags) {
  EXPECT_EQ(parse_precision("int8"), Precision::kInt8);
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_THROW((void)parse_precision("int4"), std::invalid_argument);
  EXPECT_THROW((void)parse_precision("int2"), std::invalid_argument);
  EXPECT_STREQ(precision_tag(Precision::kInt8), "int8");
  EXPECT_EQ(precision_value_bits(Precision::kInt8), 8);
}

TEST(QuantTest, RelativeErrorMagnitudesMatchTheHeuristicExpectations) {
  Rng rng(difftest::env_seed() ^ 0xE44ULL);
  const Tensor w = random_masked(64, 96, 0.8, rng);
  EXPECT_EQ(relative_quant_error(w, Precision::kFp32), 0.0F);
  // Per-row symmetric scales: int8 lands near 1/254.
  EXPECT_GT(relative_quant_error(w, Precision::kInt8), 0.0F);
  EXPECT_LE(relative_quant_error(w, Precision::kInt8), 0.01F);
}

TEST(QuantTest, FakeQuantizeRowsIsIdempotentAndMatchesCsrQuantize) {
  Rng rng(difftest::env_seed() ^ 0x1D3ULL);
  Tensor w = random_masked(24, 40, 0.7, rng);
  const std::vector<float> scales = fake_quantize_rows(w, Precision::kInt8);
  Tensor again = w;
  const std::vector<float> scales2 = fake_quantize_rows(again, Precision::kInt8);
  for (int64_t i = 0; i < w.numel(); ++i) {
    // Re-quantising a fake-quantised tensor reproduces the same codes;
    // scales may shift by a rounding ulp, so values agree to ~1e-6 rel.
    EXPECT_NEAR(again.at(i), w.at(i), 2e-6F * std::fabs(w.at(i)) + 1e-12F);
  }
  // Csr::quantize on the original weights produces the same scales and
  // reconstructed values as fake_quantize_rows (shared row grouping).
  Tensor original = random_masked(24, 40, 0.7, rng);
  Tensor faked = original;
  const std::vector<float> fake_scales = fake_quantize_rows(faked, Precision::kInt8);
  Csr csr = Csr::from_dense(original);
  csr.quantize(Precision::kInt8);
  for (int64_t r = 0; r < csr.rows(); ++r) {
    EXPECT_FLOAT_EQ(csr.quant().scale[static_cast<std::size_t>(r)],
                    fake_scales[static_cast<std::size_t>(r)]);
  }
  EXPECT_LE(max_abs_diff(csr.to_dense(), faked), 0.0F);
  (void)scales;
  (void)scales2;
}

TEST(QuantTest, CsrSpmmTWithinAnalyticBoundOfFp32) {
  Rng rng(difftest::env_seed() ^ 0xABCD01ULL);
  const Tensor w = random_masked(33, 57, 0.85, rng);
  const Csr fp32 = Csr::from_dense(w);
  Csr q = Csr::from_dense(w);
  q.quantize(Precision::kInt8);
  Tensor x(Shape{5, 57});
  x.fill_uniform(rng, -1.0F, 1.0F);
  const Tensor want = fp32.spmm_t(x);
  const Tensor got = q.spmm_t(x);
  // Per output [i, r]: |diff| <= (scale_r / 2) * sum_k |x[i, col_k]|.
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t r = 0; r < fp32.rows(); ++r) {
      double xsum = 0.0;
      for (int64_t k = fp32.row_ptr()[static_cast<std::size_t>(r)];
           k < fp32.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        xsum += std::fabs(x.at(i, fp32.col_idx()[static_cast<std::size_t>(k)]));
      }
      const double bound = 0.5 * q.quant().scale[static_cast<std::size_t>(r)] * xsum + 1e-4;
      EXPECT_LE(std::fabs(got.at(i, r) - want.at(i, r)), bound) << "i=" << i << " r=" << r;
    }
  }
}

/// All kernels of both formats agree with the fp32 kernels running on
/// the *dequantised* weights to reassociation-level precision — the
/// same effective-weights comparison the runtime differential harness
/// makes per op.
TEST(QuantTest, QuantKernelsConsistentWithDequantisedWeights) {
  Rng rng(difftest::env_seed() ^ 0xFEED02ULL);
  const Tensor w = random_masked(30, 44, 0.8, rng);
  Csr q = Csr::from_dense(w);
  q.quantize(Precision::kInt8);
  const Tensor deq = q.to_dense();
  const Csr ref = Csr::from_dense(deq);
  const float wmax = 1.0F;  // |w| <= 0.5, inputs <= 1: slack covers reassociation
  const float tol = 1e-3F * wmax;

  Tensor x(Shape{4, 44});
  x.fill_uniform(rng, -1.0F, 1.0F);
  EXPECT_LE(max_abs_diff(q.spmm_t(x), ref.spmm_t(x)), tol);

  Tensor b(Shape{30, 7});
  b.fill_uniform(rng, -1.0F, 1.0F);
  // spmm consumes B [cols, n] of the *transposed* semantic; build
  // a matching right-hand side for this shape.
  Tensor b2(Shape{44, 7});
  b2.fill_uniform(rng, -1.0F, 1.0F);
  EXPECT_LE(max_abs_diff(q.spmm(b2), ref.spmm(b2)), tol);

  std::vector<float> xv(44);
  for (auto& v : xv) v = static_cast<float>(rng.uniform01() * 2.0 - 1.0);
  const auto y_q = q.matvec(xv);
  const auto y_ref = ref.matvec(xv);
  for (std::size_t i = 0; i < y_q.size(); ++i) {
    EXPECT_NEAR(y_q[i], y_ref[i], tol);
  }

  // Event kernels run on the transposed structure, quantised after
  // the transpose (per-input groups).
  Csr qt = Csr::from_dense(w).transposed();
  qt.quantize(Precision::kInt8);
  const Csr ref_t = Csr::from_dense(qt.to_dense());
  const Tensor xs = spike_input(3, 30, 0.3, rng);
  std::vector<int32_t> active;
  std::vector<double> acc_q(44), acc_ref(44);
  for (int64_t i = 0; i < 3; ++i) {
    active.clear();
    for (int64_t j = 0; j < 30; ++j) {
      if (xs.at(i, j) != 0.0F) active.push_back(static_cast<int32_t>(j));
    }
    std::fill(acc_q.begin(), acc_q.end(), 0.0);
    std::fill(acc_ref.begin(), acc_ref.end(), 0.0);
    const float* xrow = xs.data() + i * 30;
    qt.spmv_gather(xrow, active.data(), static_cast<int64_t>(active.size()),
                   acc_q.data());
    ref_t.spmv_gather(xrow, active.data(), static_cast<int64_t>(active.size()),
                      acc_ref.data());
    for (std::size_t c = 0; c < acc_q.size(); ++c) {
      EXPECT_NEAR(acc_q[c], acc_ref[c], tol) << "row " << i;
    }
  }

  std::vector<float> out_q(44 * 2, 0.0F), out_ref(44 * 2, 0.0F);
  qt.scatter_row(7, 1.5F, out_q.data(), 2);
  ref_t.scatter_row(7, 1.5F, out_ref.data(), 2);
  for (std::size_t i = 0; i < out_q.size(); ++i) {
    EXPECT_NEAR(out_q[i], out_ref[i], tol);
  }
  (void)b;
}

/// The documented absolute int8 tolerance, asserted in the regime it is
/// stated for: LeNet-scale fc1 weights ([120 x 400], |w| <= 0.12 — the
/// He-init scale of a fan-in-400 layer — at 0.9 sparsity) with binary
/// spike inputs at a 10% firing rate. Fixed seed: tolerance checks
/// against the *original* fp32 weights depend on the realized
/// weight/input draw, so they are pinned, not env-seeded.
TEST(QuantTest, DocumentedTolerancesHoldInTheSpikeRegime) {
  Rng rng(20260728ULL);
  const Tensor w = random_masked(120, 400, 0.9, rng, 0.12F);
  const Csr fp32 = Csr::from_dense(w);
  const Tensor x = spike_input(64, 400, 0.1, rng);
  const Tensor want = fp32.spmm_t(x);
  Csr q = Csr::from_dense(w);
  q.quantize(Precision::kInt8);
  EXPECT_LE(max_abs_diff(q.spmm_t(x), want), 1e-2F);
}

TEST(QuantTest, MemoryBytesShrinkWithPrecision) {
  Rng rng(difftest::env_seed() ^ 0x9EEULL);
  const Tensor w = random_masked(64, 128, 0.9, rng);
  const Csr fp32 = Csr::from_dense(w);
  Csr q8 = Csr::from_dense(w);
  q8.quantize(Precision::kInt8);
  EXPECT_LT(q8.memory_bytes(), fp32.memory_bytes());
  // Values went 4 bytes -> 1: the value-plane delta is 3 * nnz minus
  // the per-row scale overhead.
  EXPECT_EQ(fp32.memory_bytes() - q8.memory_bytes(), 3 * fp32.nnz() - fp32.rows() * 4);
  EXPECT_EQ(q8.nnz(), fp32.nnz());  // nnz survives the value-array release
}

TEST(QuantTest, MisuseThrows) {
  Rng rng(7);
  const Tensor w = random_masked(8, 8, 0.5, rng);
  Csr csr = Csr::from_dense(w);
  csr.quantize(Precision::kInt8);
  EXPECT_THROW(csr.quantize(Precision::kInt8), std::logic_error);
  EXPECT_THROW((void)csr.transposed(), std::logic_error);
  // kFp32 is a no-op, not an error.
  Csr plain = Csr::from_dense(w);
  EXPECT_EQ(plain.quantize(Precision::kFp32), 0.0F);
  EXPECT_FALSE(plain.quantized());
}

}  // namespace
}  // namespace ndsnn::sparse
