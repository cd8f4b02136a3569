// Post-training N:M deployment pass (Sec. III-D).
//
// NDSNN trains unstructured masks; structured-sparsity hardware wants
// N:M patterns. This pass projects every prunable weight tensor of a
// trained network onto the pattern in place (keeping the N largest
// magnitudes per group of M) and reports the magnitude mass each layer
// loses — the accuracy-relevant damage of the projection. A projected
// network compiles like any other: the pattern fixes each layer's
// sparsity near 1 - n/m (exactly, when its element count is a multiple
// of m), so 2:4 and sparser patterns meet the default
// CompileOptions::min_sparsity (0.5) and run on the runtime's
// element-wise CSR kernels; a 2:4 layer whose short tail group leaves
// it just under 0.5 stays dense.
#pragma once

#include <string>
#include <vector>

#include "nn/network.hpp"
#include "sparse/structured.hpp"

namespace ndsnn::core {

/// Per-parameter outcome of the projection.
struct NmLayerReport {
  std::string param;       ///< ParamRef name, e.g. "conv1.weight"
  int64_t weights = 0;     ///< total elements
  double loss = 0.0;       ///< fraction of |w| mass the projection removed
  double sparsity = 0.0;   ///< zero fraction after projecting
};

/// Project every prunable parameter of `net` onto `pattern` in place and
/// return one report entry per parameter, in network order. Weights that
/// already satisfy the pattern are untouched (loss 0).
std::vector<NmLayerReport> project_network_nm(nn::SpikingNetwork& net,
                                              const sparse::NmPattern& pattern);

/// Parameter-weighted mean projection loss over a report.
[[nodiscard]] double mean_projection_loss(const std::vector<NmLayerReport>& report);

}  // namespace ndsnn::core
