// Internal declarations of the hand-written intrinsic kernel bodies
// (util::simd::Tier::kAvx2). Not part of the public sparse API — the
// dispatching drivers in csr.cpp / matmul.cpp are the only
// callers.
//
// Contract: every fp32 body here computes the identical per-output
// accumulation sequence as its scalar reference (ascending nonzero /
// column order, explicit mul-then-add — never FMA — for the float
// chains, exact double products for the double chains), so results are
// bitwise identical across tiers. That only holds because the build
// pins -ffp-contract=off (see CMakeLists.txt): otherwise -O2 would
// contract the *scalar* bodies into FMAs these bodies deliberately
// avoid. The quantised int8 body has no bitwise contract and uses
// FMA + reassociated accumulator chains freely.
//
// The batch-panel spmm_t bodies read B through its transpose
// bt = Bᵀ [cols x m] (row-major, row stride m): one weight broadcast
// then serves 8 batch lanes from a contiguous load. Callers build bt
// once per call (transpose_f32).
//
// All bodies are compiled with __attribute__((target("avx2,fma"))) so
// a generic x86-64 build still links and runs — cpuinfo's detected()
// simply never selects the tier on hardware without AVX2. On non-x86
// builds the functions are stubbed out and built_with_avx2() is false.
// AArch64 note: the scalar tier's autovectorized bodies compile
// directly to NEON, so there are no hand-written NEON twins here; see
// cpuinfo.hpp.
#pragma once

#include <cstdint>

namespace ndsnn::sparse::simd {

/// True when this build contains the AVX2 intrinsic bodies (x86-64 with
/// a compiler supporting target attributes). Runtime capability is a
/// separate question — util::simd::detected() answers it.
bool built_with_avx2();

/// out[c * rows + r] = in[r * cols + c] for input columns c in
/// [c0, c1). Plain strided copy (no FP ops, trivially bitwise); the
/// drivers that build bt call it over all columns.
void transpose_f32(const float* in, int64_t rows, int64_t cols, float* out,
                   int64_t c0, int64_t c1);

/// fp32 Csr::spmm_t rows [r0, r1): cp[i * out_stride + r] =
/// float(sum_k (double)v_k * (double)bt[col_k * m + i]), 8 batch lanes
/// per pass in two 4-wide double chains.
void csr_spmm_t_f32_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                         const float* values, int64_t r0, int64_t r1,
                         const float* bt, int64_t m, int64_t out_stride,
                         float* cp);

/// int8 Csr::spmm_t rows [r0, r1): scale[r] applied once per output.
void csr_spmm_t_i8_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                        const int8_t* q8, const float* scale, int64_t r0,
                        int64_t r1, const float* bt, int64_t m,
                        int64_t out_stride, float* cp);

/// Dense matmul_nt rows [i0, i1): c[i, j] += float(double chain over kk)
/// with bt = Bᵀ [k x n] built by the caller; contiguous 8-wide loads
/// and stores over j.
void matmul_nt_f32_avx2(const float* a, const float* bt, int64_t i0,
                        int64_t i1, int64_t k, int64_t n, float* c);

/// Dense matmul rows [i0, i1): the i-k-j axpy with the zero-skip
/// preserved (pruned weights must stay exact no-ops — adding an
/// explicit 0 term could flip a -0.0 output) and the C row held across
/// up to 4 surviving nonzeros per pass.
void matmul_f32_avx2(const float* a, const float* b, int64_t i0, int64_t i1,
                     int64_t k, int64_t n, float* c);

}  // namespace ndsnn::sparse::simd
