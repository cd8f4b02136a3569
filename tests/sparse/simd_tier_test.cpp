// Kernel-tier dispatch contract (util/cpuinfo.hpp): for every tiered
// fp32 kernel, the scalar, vector and AVX2 bodies must produce bitwise
// identical results — including ragged batch tails that exercise the
// intrinsic bodies' scalar cleanup loops — and quantised bodies must
// agree with their scalar reference within the QuantPlane error
// contract. Tiers are passed explicitly (no force() global state), and
// util::simd::resolve clamps impossible requests to detected(), so on a
// non-AVX2 host the kAvx2 cases degrade to comparing kVector against
// itself instead of being skipped or faulting.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/simd_kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using util::simd::Tier;

/// A weight-like matrix: uniform values with a fraction zeroed so the
/// sparse formats have real structure (and the AVX2 spmm_t gate
/// nnz >= cols holds at the sizes used here).
Tensor sparse_matrix(int64_t rows, int64_t cols, double sparsity, uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{rows, cols});
  t.fill_uniform(rng, -1.0F, 1.0F);
  float* p = t.data();
  // Deterministic stride-based zeroing: exact sparsity, spread pattern.
  const int64_t keep_every = sparsity >= 1.0 ? t.numel() + 1
                                             : static_cast<int64_t>(1.0 / (1.0 - sparsity));
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (i % keep_every != 0) p[i] = 0.0F;
  }
  return t;
}

Tensor dense_batch(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{rows, cols});
  t.fill_uniform(rng, -2.0F, 2.0F);
  return t;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << ": tiers disagree bitwise";
}

void expect_close(const Tensor& a, const Tensor& b, float tol, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a.at(i), b.at(i), tol) << what << " at flat index " << i;
  }
}

constexpr Tier kTiers[] = {Tier::kScalar, Tier::kVector, Tier::kAvx2};

TEST(SimdTierTest, DetectedTierIsExecutable) {
  const Tier t = util::simd::detected();
  EXPECT_NE(t, Tier::kAuto);
  // resolve() must clamp any request to something the box executes.
  for (const Tier req : kTiers) {
    EXPECT_LE(static_cast<int>(util::simd::resolve(req)), static_cast<int>(t));
  }
  EXPECT_TRUE(simd::built_with_avx2() || util::simd::detected() != Tier::kAvx2);
}

TEST(SimdTierTest, CsrSpmmTBitwiseAcrossTiers) {
  // fc1 scale, plus a ragged batch (13 = 8 + 5 tail) so the 8-lane
  // AVX2 batch panels hit their cleanup path.
  const Tensor w = sparse_matrix(120, 400, 0.9, 7);
  const Csr csr = Csr::from_dense(w);
  for (const int64_t m : {13L, 8L, 32L}) {
    const Tensor b = dense_batch(m, 400, 11);
    const Tensor ref = csr.spmm_t(b, Tier::kScalar);
    for (const Tier tier : kTiers) {
      expect_bitwise(csr.spmm_t(b, tier), ref, "csr spmm_t");
    }
  }
}

TEST(SimdTierTest, CsrSpmmTSmallBatchFallsBackBitwise) {
  // m < 8 takes the scalar row path at every tier; still bitwise.
  const Tensor w = sparse_matrix(40, 64, 0.8, 3);
  const Csr csr = Csr::from_dense(w);
  const Tensor b = dense_batch(3, 64, 5);
  const Tensor ref = csr.spmm_t(b, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(csr.spmm_t(b, tier), ref, "csr spmm_t small batch");
  }
}

TEST(SimdTierTest, DenseMatmulBitwiseAcrossTiers) {
  const Tensor a = sparse_matrix(33, 48, 0.6, 31);  // zero-skip path has real zeros
  const Tensor b = dense_batch(48, 19, 37);
  const Tensor ref = tensor::matmul(a, b, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(tensor::matmul(a, b, tier), ref, "matmul");
  }
}

TEST(SimdTierTest, DenseMatmulNtBitwiseAcrossTiers) {
  const Tensor a = dense_batch(13, 48, 41);
  const Tensor w = sparse_matrix(31, 48, 0.5, 43);  // B of matmul_nt = weights [n, k]
  const Tensor ref = tensor::matmul_nt(a, w, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(tensor::matmul_nt(a, w, tier), ref, "matmul_nt");
  }
}

TEST(SimdTierTest, TransposeHelperMatchesNaive) {
  const int64_t rows = 13, cols = 23;
  const Tensor in = dense_batch(rows, cols, 47);
  std::vector<float> out(static_cast<std::size_t>(rows * cols), -1.0F);
  simd::transpose_f32(in.data(), rows, cols, out.data(), 0, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(out[static_cast<std::size_t>(c * rows + r)], in.at(r, c));
    }
  }
}

/// Quantised planes: no bitwise contract across tiers (the intrinsic
/// bodies reassociate with FMA), but every tier must stay within the
/// plane's error bound of the fp32 product — here checked against the
/// scalar quantised kernel with a tolerance well under the quantisation
/// step itself.
TEST(SimdTierTest, CsrSpmmTQuantisedTiersAgreeWithinTolerance) {
  for (const Precision p : {Precision::kInt8, Precision::kInt4}) {
    for (const int64_t group : {0L, 64L}) {
      Tensor w = sparse_matrix(120, 400, 0.9, 53);
      Csr csr = Csr::from_dense(w);
      (void)csr.quantize(p, /*symmetric=*/true, /*uniform_scale=*/false, group);
      const Tensor b = dense_batch(13, 400, 59);
      const Tensor ref = csr.spmm_t(b, Tier::kScalar);
      // int4 codes are coarse; the per-output dot products here sum
      // ~40 nonzero terms of magnitude <= 2, so 1e-3 is far below the
      // quantisation error yet far above fp32 reassociation noise.
      for (const Tier tier : kTiers) {
        expect_close(csr.spmm_t(b, tier), ref, 1e-3F, "quantised csr spmm_t");
      }
    }
  }
}

TEST(SimdTierTest, GroupedPlaneImprovesInt4Error) {
  // A matrix with per-row outliers: one large entry per row blows up
  // the per-row int4 scale; 32-wide groups isolate the outlier.
  Rng rng(61);
  Tensor w(Shape{32, 256});
  w.fill_uniform(rng, -0.1F, 0.1F);
  for (int64_t r = 0; r < 32; ++r) w.at(r, 7) = 4.0F;
  const float per_row = relative_quant_error(w, Precision::kInt4, 0.0F, false);
  const float grouped = relative_quant_error(w, Precision::kInt4, 0.0F, false, 32);
  EXPECT_LT(grouped, per_row);

  // The grouped plane's reconstruction must respect its group scales:
  // round-trip through dequant and compare per element.
  Csr csr = Csr::from_dense(w);
  (void)csr.quantize(Precision::kInt4, true, false, 32);
  EXPECT_EQ(csr.quant().group_size, 32);
  const Tensor back = csr.to_dense();
  // Small-magnitude entries must reconstruct to ~1/16 of their group
  // max (0.1), not 1/16 of the row max (4.0).
  for (int64_t r = 0; r < 32; ++r) {
    EXPECT_NEAR(back.at(r, 100), w.at(r, 100), 0.1F / 7.0F + 1e-5F);
  }
}

TEST(SimdTierTest, GroupedQuantizeValidation) {
  Csr csr = Csr::from_dense(sparse_matrix(16, 64, 0.5, 67));
  EXPECT_THROW((void)csr.quantize(Precision::kInt8, true, false, 24),
               std::invalid_argument);  // not a power of two
  EXPECT_THROW((void)csr.quantize(Precision::kInt8, true, true, 32),
               std::invalid_argument);  // uniform + grouped conflict
  EXPECT_THROW((void)csr.quantize(Precision::kInt8, false, false, 32),
               std::invalid_argument);  // grouped is symmetric-only
}

TEST(SimdTierTest, GroupedGatherMatchesOwnDequantisedValues) {
  // Event-path kernel on a grouped plane: spmv_gather must accumulate
  // exactly the plane's own dequantised values (to_dense uses the same
  // QuantPlane::dequant), in the same ascending-j double chains.
  Tensor w = sparse_matrix(48, 96, 0.8, 71);
  Csr csr_t = Csr::from_dense(w).transposed();  // Wᵀ [96, 48]
  (void)csr_t.quantize(Precision::kInt8, true, false, 16);
  const Tensor deq = csr_t.to_dense();
  const Tensor b = dense_batch(1, 96, 73);
  std::vector<int32_t> active;
  for (int32_t j = 0; j < 96; ++j) active.push_back(j);
  std::vector<double> acc(48, 0.0);
  csr_t.spmv_gather(b.data(), active.data(), static_cast<int64_t>(active.size()),
                    acc.data());
  for (int64_t r = 0; r < 48; ++r) {
    double expect = 0.0;
    for (int64_t j = 0; j < 96; ++j) {
      expect += static_cast<double>(deq.at(j, r)) * static_cast<double>(b.at(0, j));
    }
    EXPECT_NEAR(acc[static_cast<std::size_t>(r)], expect, 1e-12);
  }
}

}  // namespace
}  // namespace ndsnn::sparse
