// Model checkpointing: save/load every parameter tensor of a network,
// optionally tagged with the zoo architecture that produced it.
//
// Format: magic "NDCK", u32 version, then
//   v1: u64 param count, per parameter a length-prefixed name and the
//       tensor in the tensor/serialize format (legacy, params only);
//   v2: a CheckpointMeta block (zoo arch name + the ModelSpec scalars
//       needed to rebuild it) before the v1 parameter section;
//   v3: v2 plus a quantisation record between the meta block and the
//       parameters — per prunable weight layer, the deployed value
//       precision and its per-row scales (plus one always-0 zero-point
//       byte per row, kept for layout compatibility), so a served model
//       reproduces the exact quantised plane the checkpoint was
//       validated at (runtime::CompiledNetwork::from_checkpoint honors
//       it under WeightPrecision::kAuto).
// Loading validates names and shapes against the live network, so a
// checkpoint can only be restored into the architecture that wrote it.
// Every older version keeps loading: v1/v2 readers skip nothing they
// don't know, and the v3 sections are skipped when restoring into a
// live network.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/models/zoo.hpp"
#include "nn/network.hpp"
#include "sparse/quant.hpp"

namespace ndsnn::nn {

/// Architecture record of a v2 checkpoint: everything make_model needs
/// to rebuild the network the parameters belong to. The RNG seed only
/// affects initialization, which loading overwrites entirely.
struct CheckpointMeta {
  std::string arch;  ///< zoo name: "vgg16" | "resnet19" | "lenet5"
  ModelSpec spec;
};

/// Quantisation record of a v3 checkpoint: one entry per prunable
/// weight parameter, in params() order (== the order the runtime
/// compiler visits weight layers). Scales are per row of
/// the lowered [dim(0), numel/dim(0)] weight — for dense-activation
/// layers exactly what sparse::Csr::quantize derives (event-path
/// layers quantise the transposed structure, so their deployed groups
/// are per input feature and only the recorded *precision* carries
/// over). They regenerate deterministically from the stored fp32
/// parameters; recording them makes the deployed precision part of the
/// serving contract and the planes inspectable without the weights.
struct QuantRecordLayer {
  std::string param;  ///< parameter name, e.g. "layer0.weight"
  sparse::Precision precision = sparse::Precision::kFp32;
  std::vector<float> scales;
};

struct QuantRecord {
  std::vector<QuantRecordLayer> layers;
};

/// Build the record for deploying `network` at `precision`: symmetric
/// per-row scales over every prunable parameter.
[[nodiscard]] QuantRecord build_quant_record(SpikingNetwork& network,
                                             sparse::Precision precision);

/// Write all parameters (weights, biases, BN stats are parameters too).
/// The two-argument form writes a v1 (params-only) checkpoint; passing a
/// CheckpointMeta writes v2 with the architecture record; passing a
/// QuantRecord as well writes v3.
void save_checkpoint(std::ostream& out, SpikingNetwork& network);
void save_checkpoint(std::ostream& out, SpikingNetwork& network, const CheckpointMeta& meta);
void save_checkpoint(std::ostream& out, SpikingNetwork& network, const CheckpointMeta& meta,
                     const QuantRecord& quant);
void save_checkpoint_file(const std::string& path, SpikingNetwork& network);
void save_checkpoint_file(const std::string& path, SpikingNetwork& network,
                          const CheckpointMeta& meta);
void save_checkpoint_file(const std::string& path, SpikingNetwork& network,
                          const CheckpointMeta& meta, const QuantRecord& quant);

/// Restore parameters in place (v1 or v2; a v2 architecture record is
/// skipped — the live network defines the expected shapes). Throws
/// std::runtime_error on any name/shape mismatch or malformed stream.
void load_checkpoint(std::istream& in, SpikingNetwork& network);
void load_checkpoint_file(const std::string& path, SpikingNetwork& network);

/// Read just the architecture record of a v2/v3 checkpoint. Throws
/// std::runtime_error for v1 checkpoints (no record) or bad streams.
[[nodiscard]] CheckpointMeta read_checkpoint_meta(std::istream& in);
[[nodiscard]] CheckpointMeta read_checkpoint_meta_file(const std::string& path);

/// Read the quantisation record of a v3 checkpoint. Throws
/// std::runtime_error for v1/v2 checkpoints (no record).
[[nodiscard]] QuantRecord read_checkpoint_quant(std::istream& in);
[[nodiscard]] QuantRecord read_checkpoint_quant_file(const std::string& path);

/// Rebuild the recorded architecture and restore every parameter from a
/// v2/v3 checkpoint file. Throws std::runtime_error for v1 checkpoints.
/// When `quant` is non-null it receives the v3 quantisation record
/// (left empty for v2 checkpoints).
[[nodiscard]] std::unique_ptr<SpikingNetwork> load_checkpoint_network(
    const std::string& path, QuantRecord* quant = nullptr);

}  // namespace ndsnn::nn
