// Quantised value planes for the sparse execution formats (Sec. III-D).
//
// Csr::storage_bits has always *accounted* 8/4-bit weight storage; this
// module makes the runtime actually execute it. A QuantPlane replaces
// the fp32 value array of a Csr with symmetric int8 codes plus one
// scale per CSR row (or one plane-wide scale, replicated per row), so
// the kernels touch 4x fewer value bytes and dequantise once per output
// instead of once per term. Codes are clamped to [-127, 127], so real
// 0.0 maps to code 0 and pruned entries decode back to exact zeros.
//
// Error contract: with per-row scale s, every reconstructed value is
// within s/2 of its fp32 source, so any quantised kernel output differs
// from its fp32 counterpart by at most sum_k (s_k / 2) * |x_k| over the
// terms it accumulates. tests/sparse/quant_test.cpp asserts exactly
// this bound; the runtime-level tolerances derived from it are
// documented in README.md (runtime precision section).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace ndsnn::sparse {

/// Bit width of a value plane. kFp32 means "no quantisation".
enum class Precision : uint8_t { kFp32 = 0, kInt8 = 1 };

[[nodiscard]] const char* precision_tag(Precision p);     // "fp32" | "int8"
[[nodiscard]] int64_t precision_value_bits(Precision p);  // 32 | 8

/// Parse "fp32" / "int8" (CLI surface). Throws std::invalid_argument on
/// anything else.
[[nodiscard]] Precision parse_precision(const std::string& s);

/// Quantised value array: `value_count` symmetric int8 codes grouped
/// into contiguous runs that share one scale (group g of a Csr is row g).
struct QuantPlane {
  Precision precision = Precision::kFp32;
  int64_t value_count = 0;
  std::vector<int8_t> q8;
  std::vector<float> scale;  ///< one per group
  /// True when every group shares one plane-wide scale (still
  /// replicated per group so kernels index scale[g] uniformly). This is
  /// what licenses the binary-spike gather fast path: with a
  /// j-independent scale, {0,1} activations let spmv_gather sum raw
  /// codes in int32 and dequantise once per output.
  bool uniform = false;

  [[nodiscard]] bool present() const { return precision != Precision::kFp32; }

  /// Reconstructed fp32 value of value k in group g.
  [[nodiscard]] float dequant(int64_t group, int64_t k) const {
    return scale[static_cast<std::size_t>(group)] *
           static_cast<float>(q8[static_cast<std::size_t>(k)]);
  }

  /// Bytes this plane actually occupies (codes + scales).
  [[nodiscard]] int64_t memory_bytes() const;
};

/// Quantise `values` into groups bounded by `group_ptr` (group g covers
/// [group_ptr[g], group_ptr[g+1]); the Csr row_ptr layout) with
/// scale = max|v| / 127 per group. `max_abs_error`, when non-null,
/// receives the largest |dequant - v|. With `uniform_scale` every group
/// takes one plane-wide scale (computed over all values, replicated per
/// group, QuantPlane::uniform set): the per-value error bound becomes
/// scale/2 with scale = global max|v| / 127 — the same 1/254 bound
/// *relative to the global max* that per-group scaling gives, traded
/// for the int32 binary-spike gather fast path.
[[nodiscard]] QuantPlane quantize_grouped(const float* values, const int64_t* group_ptr,
                                          int64_t groups, Precision precision,
                                          float* max_abs_error = nullptr,
                                          bool uniform_scale = false);

/// Largest |dequant(quant(w)) - w| over the entries with |w| > threshold
/// of the lowered [dim(0), numel/dim(0)] weight tensor, quantised with
/// one symmetric scale per lowered row, divided by the global max |w|
/// (0 when the tensor has no surviving entry, or for kFp32). This is
/// the measurement the runtime's precision heuristic bounds: per-row
/// int8 lands near 1/254 ~ 0.4%. `uniform_scale` measures one
/// plane-wide scale instead (the scheme the event-path gather
/// structures actually build): same 1/254 worst case, but the
/// *measured* value can sit anywhere under it, so the heuristic must
/// measure the scheme it will emit.
[[nodiscard]] float relative_quant_error(const tensor::Tensor& weights, Precision precision,
                                         float threshold = 0.0F,
                                         bool uniform_scale = false);

/// Quantise-dequantise the tensor in place with one symmetric scale per
/// lowered row — the exact transformation Csr::quantize applies to the
/// values it stores (zeros are fixed points). Re-quantising the result
/// reproduces the same codes, which is what lets the differential
/// harness compare quantised plans against fp32 plans of a
/// fake-quantised network. Returns the per-row scales (the checkpoint
/// v3 record stores them).
std::vector<float> fake_quantize_rows(tensor::Tensor& weights, Precision precision);

}  // namespace ndsnn::sparse
