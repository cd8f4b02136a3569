#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sparse/simd_kernels.hpp"

namespace ndsnn::sparse {

float Csr::quantize(Precision precision, bool uniform_scale) {
  if (precision == Precision::kFp32) return 0.0F;
  if (quant_.present()) throw std::logic_error("Csr::quantize: already quantised");
  float err = 0.0F;
  quant_ = quantize_grouped(values_.data(), row_ptr_.data(), rows_, precision, &err,
                            uniform_scale);
  values_.clear();
  values_.shrink_to_fit();
  return err;
}

void Csr::dequantize() {
  if (!quant_.present()) return;
  values_.resize(col_idx_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      values_[static_cast<std::size_t>(k)] = quant_.dequant(r, k);
    }
  }
  quant_ = QuantPlane{};
}

int64_t Csr::memory_bytes() const {
  const int64_t indices = static_cast<int64_t>(row_ptr_.size()) * 8 +
                          static_cast<int64_t>(col_idx_.size()) * 4;
  return indices + (quant_.present() ? quant_.memory_bytes()
                                     : static_cast<int64_t>(values_.size()) * 4);
}

Csr Csr::from_dense(const tensor::Tensor& dense, float threshold) {
  if (dense.rank() != 2) {
    throw std::invalid_argument("Csr::from_dense: expected rank-2, got " +
                                dense.shape().str());
  }
  if (threshold < 0.0F) {
    throw std::invalid_argument("Csr::from_dense: threshold must be >= 0");
  }
  Csr csr;
  csr.rows_ = dense.dim(0);
  csr.cols_ = dense.dim(1);
  csr.row_ptr_.reserve(static_cast<std::size_t>(csr.rows_) + 1);
  csr.row_ptr_.push_back(0);
  for (int64_t r = 0; r < csr.rows_; ++r) {
    for (int64_t c = 0; c < csr.cols_; ++c) {
      const float v = dense.at(r, c);
      if (std::fabs(v) > threshold) {
        csr.col_idx_.push_back(static_cast<int32_t>(c));
        csr.values_.push_back(v);
      }
    }
    csr.row_ptr_.push_back(static_cast<int64_t>(csr.values_.size()));
  }
  return csr;
}

Csr Csr::from_weights(const tensor::Tensor& weights, float threshold) {
  if (weights.rank() < 2) {
    throw std::invalid_argument("Csr::from_weights: expected rank >= 2, got " +
                                weights.shape().str());
  }
  const int64_t rows = weights.dim(0);
  return from_dense(weights.reshaped(tensor::Shape{rows, weights.numel() / rows}),
                    threshold);
}

tensor::Tensor Csr::to_dense() const {
  tensor::Tensor out(tensor::Shape{rows_, cols_});
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      out.at(r, col_idx_[static_cast<std::size_t>(k)]) =
          quant_.present() ? quant_.dequant(r, k) : values_[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

Csr Csr::transposed() const {
  if (quant_.present()) {
    // The per-row groups would have to be regrouped per column; the
    // runtime always transposes first and quantises the result.
    throw std::logic_error("Csr::transposed: transpose before quantize");
  }
  Csr t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  const auto nnz_count = values_.size();
  t.col_idx_.resize(nnz_count);
  t.values_.resize(nnz_count);
  // Counting transpose: histogram per source column, prefix-sum into row
  // starts, then place entries in source (row-major, ascending column)
  // order so every transposed row ends up sorted by its columns.
  t.row_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  for (const int32_t c : col_idx_) ++t.row_ptr_[static_cast<std::size_t>(c) + 1];
  for (int64_t r = 0; r < cols_; ++r) {
    t.row_ptr_[static_cast<std::size_t>(r) + 1] += t.row_ptr_[static_cast<std::size_t>(r)];
  }
  std::vector<int64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto c = static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]);
      const int64_t slot = cursor[c]++;
      t.col_idx_[static_cast<std::size_t>(slot)] = static_cast<int32_t>(r);
      t.values_[static_cast<std::size_t>(slot)] = values_[static_cast<std::size_t>(k)];
    }
  }
  return t;
}

void Csr::spmv_gather(const float* x, const int32_t* active, int64_t n_active,
                      double* acc, int32_t* iacc) const {
  if (quant_.present()) {
    // Binary-spike fast path: with one plane-wide scale (uniform), {0,1}
    // activations make every contribution a raw code, so the whole
    // gather is int32 adds plus one scale multiply per output. Gate on
    // the actual activation values — a forced event mode can route
    // analog inputs here.
    if (quant_.uniform && iacc != nullptr && n_active > 0) {
      bool binary = true;
      for (int64_t a = 0; a < n_active; ++a) binary &= x[active[a]] == 1.0F;
      if (binary) {
        std::fill(iacc, iacc + cols_, 0);
        for (int64_t a = 0; a < n_active; ++a) {
          const auto j = static_cast<std::size_t>(active[a]);
          for (int64_t k = row_ptr_[j]; k < row_ptr_[j + 1]; ++k) {
            iacc[col_idx_[static_cast<std::size_t>(k)]] += quant_.q8[static_cast<std::size_t>(k)];
          }
        }
        const double s = static_cast<double>(quant_.scale[0]);
        for (int64_t c = 0; c < cols_; ++c) {
          if (iacc[c] != 0) acc[c] += s * static_cast<double>(iacc[c]);
        }
        return;
      }
    }
    // `this` is Wᵀ, so a group (row) is one input feature: fold its
    // scale into the activation once per active input, then each term
    // is a small-int multiply-add.
    for (int64_t a = 0; a < n_active; ++a) {
      const auto j = static_cast<std::size_t>(active[a]);
      const double u = static_cast<double>(quant_.scale[j] * x[j]);
      for (int64_t k = row_ptr_[j]; k < row_ptr_[j + 1]; ++k) {
        acc[col_idx_[static_cast<std::size_t>(k)]] +=
            static_cast<double>(quant_.q8[static_cast<std::size_t>(k)]) * u;
      }
    }
    return;
  }
  for (int64_t a = 0; a < n_active; ++a) {
    const auto j = static_cast<std::size_t>(active[a]);
    const double xj = static_cast<double>(x[j]);
    for (int64_t k = row_ptr_[j]; k < row_ptr_[j + 1]; ++k) {
      acc[col_idx_[static_cast<std::size_t>(k)]] +=
          static_cast<double>(values_[static_cast<std::size_t>(k)]) * xj;
    }
  }
}

void Csr::scatter_row(int64_t row, float x, float* out, int64_t out_stride) const {
  const int64_t k0 = row_ptr_[static_cast<std::size_t>(row)];
  const int64_t k1 = row_ptr_[static_cast<std::size_t>(row) + 1];
  if (quant_.present()) {
    const float xs = quant_.scale[static_cast<std::size_t>(row)] * x;
    for (int64_t k = k0; k < k1; ++k) {
      out[static_cast<int64_t>(col_idx_[static_cast<std::size_t>(k)]) * out_stride] +=
          static_cast<float>(quant_.q8[static_cast<std::size_t>(k)]) * xs;
    }
    return;
  }
  for (int64_t k = k0; k < k1; ++k) {
    out[static_cast<int64_t>(col_idx_[static_cast<std::size_t>(k)]) * out_stride] +=
        values_[static_cast<std::size_t>(k)] * x;
  }
}

std::vector<float> Csr::matvec(const std::vector<float>& x) const {
  if (static_cast<int64_t>(x.size()) != cols_) {
    throw std::invalid_argument("Csr::matvec: x size mismatch");
  }
  std::vector<float> y(static_cast<std::size_t>(rows_), 0.0F);
  for (int64_t r = 0; r < rows_; ++r) {
    const int64_t k0 = row_ptr_[static_cast<std::size_t>(r)];
    const int64_t k1 = row_ptr_[static_cast<std::size_t>(r) + 1];
    double acc = 0.0;
    if (quant_.present()) {
      for (int64_t k = k0; k < k1; ++k) {
        acc += static_cast<double>(quant_.q8[static_cast<std::size_t>(k)]) *
               x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      }
      acc *= static_cast<double>(quant_.scale[static_cast<std::size_t>(r)]);
    } else {
      for (int64_t k = k0; k < k1; ++k) {
        acc += static_cast<double>(values_[static_cast<std::size_t>(k)]) *
               x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      }
    }
    y[static_cast<std::size_t>(r)] = static_cast<float>(acc);
  }
  return y;
}

void Csr::spmm_range(int64_t r0, int64_t r1, const float* bp, int64_t n, float* cp) const {
  if (quant_.present()) {
    // Accumulate raw-code axpys into row r, then dequantise the row
    // once: C[r, :] = scale_r * sum_k q_k B[col_k, :].
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t k0 = row_ptr_[static_cast<std::size_t>(r)];
      const int64_t k1 = row_ptr_[static_cast<std::size_t>(r) + 1];
      if (k0 == k1) continue;
      float* crow = cp + r * n;
      for (int64_t k = k0; k < k1; ++k) {
        const auto qv = static_cast<float>(quant_.q8[static_cast<std::size_t>(k)]);
        const float* brow =
            bp + static_cast<int64_t>(col_idx_[static_cast<std::size_t>(k)]) * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += qv * brow[j];
      }
      const float s = quant_.scale[static_cast<std::size_t>(r)];
      for (int64_t j = 0; j < n; ++j) crow[j] *= s;
    }
    return;
  }
  // Row-major streaming: each nonzero A[r, col] scales one full row of B
  // into row r of C, so the inner loop is a contiguous axpy.
  for (int64_t r = r0; r < r1; ++r) {
    float* crow = cp + r * n;
    for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const float v = values_[static_cast<std::size_t>(k)];
      const float* brow = bp + static_cast<int64_t>(col_idx_[static_cast<std::size_t>(k)]) * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  }
}

tensor::Tensor Csr::spmm(const tensor::Tensor& b) const {
  if (b.rank() != 2 || b.dim(0) != cols_) {
    throw std::invalid_argument("Csr::spmm: expected B [" + std::to_string(cols_) +
                                ", n], got " + b.shape().str());
  }
  const int64_t n = b.dim(1);
  tensor::Tensor c(tensor::Shape{rows_, n});
  spmm_range(0, rows_, b.data(), n, c.data());
  return c;
}

namespace {

/// Quantised spmm_t row kernel: the bitwise
/// contract does not apply to quantised execution, so the sum runs in
/// four independent float partials (the serial double chain the fp32
/// kernel is pinned to is latency-bound) and dequantises once at the
/// end.
inline float spmm_t_row_i8(const int8_t* q, const int32_t* col, int64_t count,
                           const float* brow, float scale) {
  float a0 = 0.0F, a1 = 0.0F, a2 = 0.0F, a3 = 0.0F;
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    a0 += static_cast<float>(q[k]) * brow[col[k]];
    a1 += static_cast<float>(q[k + 1]) * brow[col[k + 1]];
    a2 += static_cast<float>(q[k + 2]) * brow[col[k + 2]];
    a3 += static_cast<float>(q[k + 3]) * brow[col[k + 3]];
  }
  for (; k < count; ++k) a0 += static_cast<float>(q[k]) * brow[col[k]];
  return scale * ((a0 + a1) + (a2 + a3));
}

}  // namespace

void Csr::spmm_t_range(int64_t r0, int64_t r1, const float* bp, int64_t m, float* cp) const {
  if (quant_.present()) {
    for (int64_t i = 0; i < m; ++i) {
      const float* brow = bp + i * cols_;
      float* crow = cp + i * rows_;
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t k0 = row_ptr_[static_cast<std::size_t>(r)];
        const int64_t k1 = row_ptr_[static_cast<std::size_t>(r) + 1];
        crow[r] = spmm_t_row_i8(quant_.q8.data() + k0, col_idx_.data() + k0, k1 - k0, brow,
                                quant_.scale[static_cast<std::size_t>(r)]);
      }
    }
    return;
  }
  // One dense row of B is reused across every CSR row, so keep the batch
  // loop outermost and gather within the row.
  for (int64_t i = 0; i < m; ++i) {
    const float* brow = bp + i * cols_;
    float* crow = cp + i * rows_;
    for (int64_t r = r0; r < r1; ++r) {
      // Double accumulator to mirror matmul_nt, which the dense linear
      // path uses; keeps sparse and dense logits numerically close.
      double acc = 0.0;
      for (int64_t k = row_ptr_[static_cast<std::size_t>(r)];
           k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
        acc += static_cast<double>(values_[static_cast<std::size_t>(k)]) *
               brow[col_idx_[static_cast<std::size_t>(k)]];
      }
      crow[r] = static_cast<float>(acc);
    }
  }
}

tensor::Tensor Csr::spmm_t(const tensor::Tensor& b, util::simd::Tier tier) const {
  if (b.rank() != 2 || b.dim(1) != cols_) {
    throw std::invalid_argument("Csr::spmm_t: expected B [m, " + std::to_string(cols_) +
                                "], got " + b.shape().str());
  }
  const int64_t m = b.dim(0);
  tensor::Tensor c(tensor::Shape{m, rows_});
  const float* bp = b.data();
  float* cp = c.data();
  // AVX2 batch-panel route. Building bt = Bᵀ costs one pass over B, so
  // demand a batch wide enough for the 8-lane body (m >= 8) and at
  // least as many nonzeros as B columns (each nonzero is revisited m
  // times — below that the transpose dominates).
  if (util::simd::resolve(tier) != util::simd::Tier::kAvx2 || !simd::built_with_avx2() ||
      m < 8 || nnz() < cols_) {
    spmm_t_range(0, rows_, bp, m, cp);
    return c;
  }
  std::vector<float> bt(static_cast<std::size_t>(cols_ * m));
  simd::transpose_f32(bp, m, cols_, bt.data(), 0, cols_);
  if (quant_.present()) {
    simd::csr_spmm_t_i8_avx2(row_ptr_.data(), col_idx_.data(), quant_.q8.data(),
                             quant_.scale.data(), 0, rows_, bt.data(), m, rows_, cp);
  } else {
    simd::csr_spmm_t_f32_avx2(row_ptr_.data(), col_idx_.data(), values_.data(), 0, rows_,
                              bt.data(), m, rows_, cp);
  }
  return c;
}

double Csr::sparsity() const {
  const int64_t total = rows_ * cols_;
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(nnz()) / static_cast<double>(total);
}

int64_t Csr::storage_bits(int64_t value_bits, int64_t index_bits) const {
  // nnz values + nnz column indices + (rows + 1) row pointers.
  return nnz() * (value_bits + index_bits) + (rows_ + 1) * index_bits;
}

}  // namespace ndsnn::sparse
