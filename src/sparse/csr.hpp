// Compressed Sparse Row storage for 2-D weight matrices (Sec. III-D).
//
// Used by the memory-footprint analysis, by the edge-deployment example
// to export trained sparse models, and by the inference runtime
// (src/runtime/) as the execution format for pruned weight layers: the
// spmm kernels below are what make the trained sparsity pay off at
// forward time instead of only in the analytical cost models.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/quant.hpp"
#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::sparse {

/// CSR matrix: row_ptr has rows+1 entries; col_idx/values have nnz each.
class Csr {
 public:
  /// Compress a rank-2 tensor, keeping entries with |x| > threshold.
  /// The default threshold 0 keeps everything that is not exactly zero;
  /// a positive threshold deliberately drops tiny-but-nonzero weights
  /// (e.g. numerically dirty mask-pruned entries).
  [[nodiscard]] static Csr from_dense(const tensor::Tensor& dense, float threshold = 0.0F);

  /// Masked-weight extractor: reshape a weight tensor of any rank to
  /// [dim(0), numel/dim(0)] (conv [F, C, KH, KW] -> [F, C*KH*KW], linear
  /// [out, in] unchanged) and compress it. This is the uniform path from
  /// a trained, mask-zeroed parameter tensor to an executable kernel.
  [[nodiscard]] static Csr from_weights(const tensor::Tensor& weights, float threshold = 0.0F);

  /// Expand back to dense [rows, cols].
  [[nodiscard]] tensor::Tensor to_dense() const;

  /// Transposed copy (Aᵀ as CSR, rows/cols swapped). Within each
  /// transposed row the entries stay in ascending column order. The
  /// runtime's event-driven ops build this once at compile time so a
  /// sparse *input* index selects one contiguous weight row.
  [[nodiscard]] Csr transposed() const;

  /// Event-driven gather over `this` = Wᵀ [in, out]: for each active
  /// input index j (ascending, a subset of rows with x[j] != 0), do
  /// acc[col] += x[j] * value for every nonzero of row j, with double
  /// products/adds. Per output element the contributions accumulate in
  /// ascending j order — the same sequence Csr::spmm_t runs on W
  /// restricted to the nonzero x[j], and skipped zero terms are exact
  /// no-ops on the accumulator — so float(acc) is bitwise identical to
  /// the dense-activation result. `acc` must hold cols() zeros on entry.
  ///
  /// `iacc` (cols() int32 slots, any contents — the kernel zeroes them)
  /// enables the binary-spike fast path on uniform-scale quantised
  /// planes: when every active x[j] == 1.0 the raw codes are summed in
  /// int32 and the shared scale applied once per output, removing the
  /// per-active-input dequantise multiply. Null, non-binary input, or a
  /// per-row-scaled plane all fall back to the general path.
  void spmv_gather(const float* x, const int32_t* active, int64_t n_active,
                   double* acc, int32_t* iacc = nullptr) const;

  /// Scatter one row scaled by x: out[col * out_stride] += value * x for
  /// every nonzero of `row`. Float adds, ascending column order. The
  /// event-driven conv path uses this with `this` = Wᵀ [C*K*K, F],
  /// row = patch column, out_stride = OH*OW.
  void scatter_row(int64_t row, float x, float* out, int64_t out_stride) const;

  /// y[rows] = A * x[cols] (sparse mat-vec).
  [[nodiscard]] std::vector<float> matvec(const std::vector<float>& x) const;

  /// C[rows, n] = A * B for dense B [cols, n] (the "N" variant; conv
  /// lowering: W_csr[F, CKK] * cols[CKK, L]). One body at every tier:
  /// each nonzero scales one row of B into its C row as a contiguous
  /// axpy the compiler vectorises.
  [[nodiscard]] tensor::Tensor spmm(const tensor::Tensor& b) const;

  /// C[m, rows] = B * Aᵀ for dense B [m, cols] (the "T" variant; linear
  /// layers: x[M, in] * Wᵀ with W stored CSR [out, in]). `tier` selects
  /// the kernel tier (resolved via util::simd::resolve; kAuto follows
  /// the process-wide active tier).
  ///
  /// At kAvx2 (batch m >= 8 and enough nonzeros to amortize it) the
  /// driver first materializes bt = Bᵀ so one broadcast weight serves 8
  /// contiguous batch lanes; fp32 runs two 4-wide double chains whose
  /// per-lane sequence equals the scalar double chain exactly (a
  /// float*float product is exact in double), so fp32 stays bitwise
  /// across tiers. int8 planes take an FMA body that applies each row's
  /// scale once per output (quantised execution carries only the
  /// QuantPlane error contract, not bitwise equality).
  [[nodiscard]] tensor::Tensor spmm_t(const tensor::Tensor& b,
                                      util::simd::Tier tier = util::simd::Tier::kAuto) const;

  /// Quantise the value plane in place: symmetric int8 codes with one
  /// scale per row. The fp32 value array is released — the memory win
  /// is real, not just accounted — and every kernel above transparently
  /// dispatches to its quantised variant, which dequantises once per
  /// output (or once per active input on the gather path) instead of
  /// once per term. Quantised kernels carry no bitwise contract: they
  /// are free to reassociate (multi-accumulator float sums) and promise
  /// only the QuantPlane error bound (sum_k (scale_k / 2) * |x_k| per
  /// output; see sparse/quant.hpp). Returns the max-abs reconstruction
  /// error over all values. Throws std::logic_error when already
  /// quantised; no-op returning 0 for kFp32. transposed() must be
  /// called *before* quantize (the runtime quantises the final
  /// execution-orientation structure).
  /// `uniform_scale` shares one plane-wide scale across all rows (see
  /// sparse::quantize_grouped) — what the runtime requests for
  /// event-path gather structures so binary spike batches can take the
  /// int32 fast path in spmv_gather.
  float quantize(Precision precision, bool uniform_scale = false);

  /// Inverse companion of quantize(): materialize the *dequantised*
  /// fp32 values and drop the plane, so the bitwise fp32 kernels above
  /// execute the exact effective weights of the quantised plane
  /// (QAT-style fake-quant evaluation; the differential harness builds
  /// its reference plans this way). No-op when not quantised.
  void dequantize();

  [[nodiscard]] bool quantized() const { return quant_.present(); }
  [[nodiscard]] Precision precision() const { return quant_.precision; }
  [[nodiscard]] const QuantPlane& quant() const { return quant_; }

  [[nodiscard]] int64_t rows() const { return rows_; }
  [[nodiscard]] int64_t cols() const { return cols_; }
  [[nodiscard]] int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }
  [[nodiscard]] double sparsity() const;

  /// Storage bytes with `value_bits` per value and `index_bits` per
  /// column index / row pointer (Sec. III-D accounting).
  [[nodiscard]] int64_t storage_bits(int64_t value_bits, int64_t index_bits) const;

  /// Bytes this structure actually occupies right now: indices + row
  /// pointers + the fp32 values or the quantised plane (codes +
  /// scales). The runtime's per-op bytes-touched reporting.
  [[nodiscard]] int64_t memory_bytes() const;

  [[nodiscard]] const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<int32_t>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<float>& values() const { return values_; }

 private:
  /// Row-range bodies of spmm/spmm_t (fp32 and quantised): each runs
  /// CSR rows [r0, r1); the drivers call them once over all rows.
  void spmm_range(int64_t r0, int64_t r1, const float* bp, int64_t n, float* cp) const;
  void spmm_t_range(int64_t r0, int64_t r1, const float* bp, int64_t m, float* cp) const;

  int64_t rows_ = 0, cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int32_t> col_idx_;
  std::vector<float> values_;
  QuantPlane quant_;
};

}  // namespace ndsnn::sparse
