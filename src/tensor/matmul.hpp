// Dense GEMM kernels.
//
// matmul:      C[M,N]  = A[M,K]  * B[K,N]
// matmul_tn:   C[M,N]  = Aᵀ (A is [K,M]) * B[K,N]
// matmul_nt:   C[M,N]  = A[M,K] * Bᵀ (B is [N,K])
//
// Blocked i-k-j loops; good enough for the CPU-scale experiments here.
//
// matmul and matmul_nt (the two kernels the inference runtime's dense
// fallback ops run) take a kernel tier (resolved via
// util::simd::resolve): the kAvx2 bodies keep the exact per-output
// rounding sequence of the scalar loops (explicit mul+add float chains
// for matmul, exact double chains for matmul_nt), so results are
// bitwise identical across tiers. matmul_tn (training-only, off the
// inference hot path) stays scalar.
#pragma once

#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::tensor {

[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            util::simd::Tier tier = util::simd::Tier::kAuto);
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b,
                               util::simd::Tier tier = util::simd::Tier::kAuto);

/// C += A * B (accumulating variant used by BPTT weight-gradient sums).
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c,
                util::simd::Tier tier = util::simd::Tier::kAuto);
/// C += Aᵀ * B
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c);
/// C += A * Bᵀ
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c,
                   util::simd::Tier tier = util::simd::Tier::kAuto);

}  // namespace ndsnn::tensor
