// AVX2(+FMA) kernel bodies for the kAvx2 dispatch tier. See
// simd_kernels.hpp for the bitwise contract each body carries and
// cpuinfo.hpp for how a body gets selected.
//
// Build note: every function is individually annotated
// __attribute__((target("avx2,fma"))) so this TU compiles under a
// generic -march (the default local build) and the resulting objects
// are safe to link anywhere — the instructions only execute after
// cpuid has proven them legal. The fp32 bodies use explicit
// _mm256_mul_* / _mm256_add_* pairs, never _mm256_fmadd_*: the scalar
// references round between multiply and add (the build pins
// -ffp-contract=off), and one fused step would break the cross-tier
// bitwise guarantee. The quantised bodies use FMA freely.
#include "sparse/simd_kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NDSNN_HAVE_AVX2_BODIES 1
#include <immintrin.h>
#endif

namespace ndsnn::sparse::simd {

bool built_with_avx2() {
#ifdef NDSNN_HAVE_AVX2_BODIES
  return true;
#else
  return false;
#endif
}

void transpose_f32(const float* in, int64_t rows, int64_t cols, float* out,
                   int64_t c0, int64_t c1) {
  for (int64_t c = c0; c < c1; ++c) {
    float* orow = out + c * rows;
    const float* ip = in + c;
    for (int64_t r = 0; r < rows; ++r) orow[r] = ip[r * cols];
  }
}

#ifdef NDSNN_HAVE_AVX2_BODIES

namespace {

/// One fused axpy pass: crow[j] += vs[0]*brows[0][j]; ...; += vs[cnt-1]*
/// brows[cnt-1][j] — each term a separate rounded mul+add, so per
/// element the sequence equals `cnt` consecutive scalar axpys.
__attribute__((target("avx2,fma"))) void axpy_group(float* crow, int64_t n,
                                                    const float* vs,
                                                    const float* const* brows,
                                                    int cnt) {
  const int64_t n8 = n & ~int64_t{7};
  int64_t j = 0;
  for (; j < n8; j += 8) {
    __m256 c = _mm256_loadu_ps(crow + j);
    for (int t = 0; t < cnt; ++t) {
      c = _mm256_add_ps(
          c, _mm256_mul_ps(_mm256_set1_ps(vs[t]), _mm256_loadu_ps(brows[t] + j)));
    }
    _mm256_storeu_ps(crow + j, c);
  }
  for (; j < n; ++j) {
    float cj = crow[j];
    for (int t = 0; t < cnt; ++t) cj += vs[t] * brows[t][j];
    crow[j] = cj;
  }
}

}  // namespace

__attribute__((target("avx2,fma"))) void csr_spmm_t_f32_avx2(
    const int64_t* row_ptr, const int32_t* col_idx, const float* values,
    int64_t r0, int64_t r1, const float* bt, int64_t m, int64_t out_stride,
    float* cp) {
  const int64_t m8 = m & ~int64_t{7};
  for (int64_t i = 0; i < m8; i += 8) {
    for (int64_t r = r0; r < r1; ++r) {
      // Two independent 4-wide double chains: per output lane the adds
      // still run in ascending-k order (lane t only ever meets its own
      // chain), and a float*float product is exact in double, so each
      // lane reproduces the scalar double chain bit for bit.
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        const float* p = bt + static_cast<int64_t>(col_idx[k]) * m + i;
        const __m256d v = _mm256_set1_pd(static_cast<double>(values[k]));
        acc_lo = _mm256_add_pd(acc_lo,
                               _mm256_mul_pd(v, _mm256_cvtps_pd(_mm_loadu_ps(p))));
        acc_hi = _mm256_add_pd(
            acc_hi, _mm256_mul_pd(v, _mm256_cvtps_pd(_mm_loadu_ps(p + 4))));
      }
      float out[8];
      _mm_storeu_ps(out, _mm256_cvtpd_ps(acc_lo));
      _mm_storeu_ps(out + 4, _mm256_cvtpd_ps(acc_hi));
      for (int t = 0; t < 8; ++t) cp[(i + t) * out_stride + r] = out[t];
    }
  }
  for (int64_t i = m8; i < m; ++i) {  // batch tail: the scalar chain
    for (int64_t r = r0; r < r1; ++r) {
      double acc = 0.0;
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        acc += static_cast<double>(values[k]) *
               static_cast<double>(bt[static_cast<int64_t>(col_idx[k]) * m + i]);
      }
      cp[i * out_stride + r] = static_cast<float>(acc);
    }
  }
}

__attribute__((target("avx2,fma"))) void csr_spmm_t_i8_avx2(
    const int64_t* row_ptr, const int32_t* col_idx, const int8_t* q8,
    const float* scale, int64_t r0, int64_t r1, const float* bt, int64_t m,
    int64_t out_stride, float* cp) {
  const int64_t m8 = m & ~int64_t{7};
  for (int64_t i = 0; i < m8; i += 8) {
    for (int64_t r = r0; r < r1; ++r) {
      // No bitwise contract: two reassociated FMA chains over even/odd
      // nonzeros hide the FMA latency.
      __m256 acc_a = _mm256_setzero_ps();
      __m256 acc_b = _mm256_setzero_ps();
      const int64_t k1 = row_ptr[r + 1];
      int64_t k = row_ptr[r];
      for (; k + 2 <= k1; k += 2) {
        acc_a = _mm256_fmadd_ps(
            _mm256_set1_ps(static_cast<float>(q8[k])),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k]) * m + i), acc_a);
        acc_b = _mm256_fmadd_ps(
            _mm256_set1_ps(static_cast<float>(q8[k + 1])),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k + 1]) * m + i),
            acc_b);
      }
      if (k < k1) {
        acc_a = _mm256_fmadd_ps(
            _mm256_set1_ps(static_cast<float>(q8[k])),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k]) * m + i), acc_a);
      }
      const __m256 acc =
          _mm256_mul_ps(_mm256_add_ps(acc_a, acc_b), _mm256_set1_ps(scale[r]));
      float out[8];
      _mm256_storeu_ps(out, acc);
      for (int t = 0; t < 8; ++t) cp[(i + t) * out_stride + r] = out[t];
    }
  }
  for (int64_t i = m8; i < m; ++i) {
    for (int64_t r = r0; r < r1; ++r) {
      float acc = 0.0F;
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        acc += static_cast<float>(q8[k]) * bt[static_cast<int64_t>(col_idx[k]) * m + i];
      }
      cp[i * out_stride + r] = acc * scale[r];
    }
  }
}

__attribute__((target("avx2,fma"))) void matmul_nt_f32_avx2(
    const float* a, const float* bt, int64_t i0, int64_t i1, int64_t k,
    int64_t n, float* c) {
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j < n8; j += 8) {
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* p = bt + kk * n + j;
        const __m256d v = _mm256_set1_pd(static_cast<double>(arow[kk]));
        acc_lo = _mm256_add_pd(acc_lo,
                               _mm256_mul_pd(v, _mm256_cvtps_pd(_mm_loadu_ps(p))));
        acc_hi = _mm256_add_pd(
            acc_hi, _mm256_mul_pd(v, _mm256_cvtps_pd(_mm_loadu_ps(p + 4))));
      }
      const __m256 sum = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm256_cvtpd_ps(acc_lo)), _mm256_cvtpd_ps(acc_hi),
          1);
      _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), sum));
    }
    for (; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * static_cast<double>(bt[kk * n + j]);
      }
      crow[j] += static_cast<float>(acc);
    }
  }
}

__attribute__((target("avx2,fma"))) void matmul_f32_avx2(const float* a,
                                                         const float* b,
                                                         int64_t i0, int64_t i1,
                                                         int64_t k, int64_t n,
                                                         float* c) {
  const float* brows[4];
  float vs[4];
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int cnt = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.0F) continue;  // pruned entries stay exact no-ops
      vs[cnt] = aval;
      brows[cnt] = b + kk * n;
      if (++cnt == 4) {
        axpy_group(crow, n, vs, brows, 4);
        cnt = 0;
      }
    }
    if (cnt != 0) axpy_group(crow, n, vs, brows, cnt);
  }
}

#else  // !NDSNN_HAVE_AVX2_BODIES — stubs; dispatch never reaches them
       // because built_with_avx2() is false and detected() caps below
       // kAvx2 off x86.

void csr_spmm_t_f32_avx2(const int64_t*, const int32_t*, const float*, int64_t,
                         int64_t, const float*, int64_t, int64_t, float*) {}
void csr_spmm_t_i8_avx2(const int64_t*, const int32_t*, const int8_t*,
                        const float*, int64_t, int64_t, const float*, int64_t,
                        int64_t, float*) {}
void matmul_nt_f32_avx2(const float*, const float*, int64_t, int64_t, int64_t,
                        int64_t, float*) {}
void matmul_f32_avx2(const float*, const float*, int64_t, int64_t, int64_t,
                     int64_t, float*) {}

#endif

}  // namespace ndsnn::sparse::simd
