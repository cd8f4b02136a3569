// Quantised-value execution through the compiled runtime: precision
// selection (forced / auto error-bound / per-layer overrides / v3
// checkpoint records), report plumbing, byte accounting, and a pinned
// end-to-end sanity run. The tight numeric guarantees live in the
// differential sweep's lockstep precision axis (testing.hpp) and the
// kernel-level tests (tests/sparse/quant_test.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "nn/checkpoint.hpp"
#include "testing.hpp"

namespace ndsnn::runtime {
namespace {

difftest::NetConfig pinned_config() {
  difftest::NetConfig cfg;
  cfg.arch = "lenet5";
  cfg.image = 12;
  cfg.sparsity = 0.9;
  cfg.seed = 314159;
  return cfg;
}

/// Weight-op reports (weights > 0), in body order.
std::vector<OpReport> weight_reports(const CompiledNetwork& plan) {
  std::vector<OpReport> out;
  for (const auto& r : plan.plan()) {
    if (r.weights > 0) out.push_back(r);
  }
  return out;
}

TEST(QuantRuntimeTest, ForcedPrecisionQuantisesSparseLayersAndShrinksBytes) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions fp32_opts;
  fp32_opts.backend = Backend::kCsr;
  const CompiledNetwork fp32 = CompiledNetwork::compile(*net, fp32_opts);
  CompileOptions q_opts = fp32_opts;
  q_opts.weight_precision = WeightPrecision::kInt8;
  const CompiledNetwork q8 = CompiledNetwork::compile(*net, q_opts);

  for (const auto& r : weight_reports(q8)) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt8) << r.layer;
  }
  // Same structure, smaller value planes: int8 cuts value bytes 4x
  // (index overhead unchanged).
  EXPECT_EQ(q8.stored_weights(), fp32.stored_weights());
  EXPECT_LT(q8.stored_bytes(), fp32.stored_bytes());
  // The summary surfaces the precision per op.
  EXPECT_NE(q8.summary().find("int8"), std::string::npos);

  // And the quantised plan still serves: finite logits, right shape.
  const tensor::Tensor batch = difftest::random_batch(pinned_config());
  const tensor::Tensor logits = q8.run(batch);
  EXPECT_EQ(logits.dim(0), batch.dim(0));
  for (int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits.at(i)));
  }
}

TEST(QuantRuntimeTest, DenseKernelLayersAlwaysExecuteFp32) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kDense;
  opts.weight_precision = WeightPrecision::kInt8;
  const CompiledNetwork plan = CompiledNetwork::compile(*net, opts);
  for (const auto& r : weight_reports(plan)) {
    EXPECT_EQ(r.precision, sparse::Precision::kFp32) << r.layer;
  }
}

TEST(QuantRuntimeTest, AutoPrecisionFollowsTheMeasuredErrorBound) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kAuto;
  // Default bound (0.02): per-row int8 error ~0.4% passes — every
  // sparse layer lands on int8.
  for (const auto& r : weight_reports(CompiledNetwork::compile(*net, opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt8) << r.layer;
  }
  // An unattainable bound keeps everything fp32.
  opts.quant_max_error = 1e-7;
  for (const auto& r : weight_reports(CompiledNetwork::compile(*net, opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kFp32) << r.layer;
  }
  opts.quant_max_error = -0.5;
  EXPECT_THROW((void)CompiledNetwork::compile(*net, opts), std::invalid_argument);
}

TEST(QuantRuntimeTest, LayerPrecisionOverridesApplyInBodyOrder) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kAuto;
  opts.layer_precisions = {sparse::Precision::kFp32, sparse::Precision::kInt8,
                           sparse::Precision::kFp32};
  const auto reports = weight_reports(CompiledNetwork::compile(*net, opts));
  ASSERT_GE(reports.size(), 4U);  // lenet5: conv1 conv2 fc1 fc2 fc3
  EXPECT_EQ(reports[0].precision, sparse::Precision::kFp32);
  EXPECT_EQ(reports[1].precision, sparse::Precision::kInt8);
  EXPECT_EQ(reports[2].precision, sparse::Precision::kFp32);
  // Layers past the override vector fall back to the error-bound
  // heuristic (int8 under the default bound).
  EXPECT_EQ(reports[3].precision, sparse::Precision::kInt8);
}

TEST(QuantRuntimeTest, FakeQuantPlanExecutesFp32KernelsWithQuantisedWeights) {
  const auto net = difftest::build_network(pinned_config());
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kInt8;
  opts.fake_quant = true;
  const CompiledNetwork fake = CompiledNetwork::compile(*net, opts);
  // Reports carry the nominal precision, bytes the actual fp32 storage.
  const auto reports = weight_reports(fake);
  CompileOptions fp32_opts;
  fp32_opts.backend = Backend::kCsr;
  const auto fp32_reports = weight_reports(CompiledNetwork::compile(*net, fp32_opts));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].precision, sparse::Precision::kInt8);
    EXPECT_EQ(reports[i].bytes, fp32_reports[i].bytes);
  }
  // Fake-quant differs from true fp32 (the weights really are
  // quantised). Untrained 0.9-sparse nets go silent before the logits,
  // so the assertion targets the first conv — its analog input is
  // always nonzero.
  const CompiledNetwork fp32 = CompiledNetwork::compile(*net, fp32_opts);
  snn::DirectEncoder encoder;
  const tensor::Tensor batch = difftest::random_batch(pinned_config());
  const Activation a =
      fake.plan_ir().ops[0]->run(Activation(encoder.encode(batch, fake.timesteps())));
  const Activation b =
      fp32.plan_ir().ops[0]->run(Activation(encoder.encode(batch, fp32.timesteps())));
  bool any_diff = false;
  for (int64_t i = 0; i < a.tensor.numel(); ++i) {
    any_diff |= a.tensor.at(i) != b.tensor.at(i);
  }
  EXPECT_TRUE(any_diff);
}

/// Pinned (deterministic) sanity against *true* fp32 weights: the int8
/// first-conv output moves by a real but bounded amount. This guards
/// against gross kernel breakage (wrong scale or code indexing) with
/// genuine quantisation error in the signal path; the
/// precision contract itself is asserted by the lockstep sweep and
/// tests/sparse/quant_test.cpp.
TEST(QuantRuntimeTest, PinnedFirstOpInt8OutputStaysCloseToFp32) {
  const difftest::NetConfig cfg = pinned_config();
  const auto net = difftest::build_network(cfg);
  const tensor::Tensor batch = difftest::random_batch(cfg);
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  const CompiledNetwork fp32 = CompiledNetwork::compile(*net, opts);
  opts.weight_precision = WeightPrecision::kInt8;
  const CompiledNetwork q8 = CompiledNetwork::compile(*net, opts);
  snn::DirectEncoder encoder;
  const Activation want =
      fp32.plan_ir().ops[0]->run(Activation(encoder.encode(batch, fp32.timesteps())));
  const Activation got =
      q8.plan_ir().ops[0]->run(Activation(encoder.encode(batch, q8.timesteps())));
  double worst = 0.0;
  for (int64_t i = 0; i < want.tensor.numel(); ++i) {
    worst = std::max(worst, static_cast<double>(
                                std::fabs(got.tensor.at(i) - want.tensor.at(i))));
  }
  EXPECT_GT(worst, 0.0);    // quantisation really happened
  EXPECT_LE(worst, 0.05);   // ~0.5 * scale * sum|x| for a 25-term conv row
}

TEST(QuantRuntimeTest, FromCheckpointHonorsV3RecordUnderAuto) {
  const auto net = difftest::build_network(pinned_config());
  const std::string path = ::testing::TempDir() + "/quant_v3.ndck";
  nn::ModelSpec spec;
  spec.in_channels = pinned_config().channels;
  spec.image_size = pinned_config().image;
  spec.timesteps = pinned_config().timesteps;
  spec.seed = pinned_config().seed;
  const nn::QuantRecord record = nn::build_quant_record(*net, sparse::Precision::kInt8);
  nn::save_checkpoint_file(path, *net, nn::CheckpointMeta{"lenet5", spec}, record);

  // kAuto honors the record over its own error bound: with a bound no
  // layer can meet, every sparse layer still serves the recorded int8.
  CompileOptions opts;
  opts.backend = Backend::kCsr;
  opts.weight_precision = WeightPrecision::kAuto;
  opts.quant_max_error = 1e-7;
  for (const auto& r : weight_reports(CompiledNetwork::from_checkpoint(path, opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kInt8) << r.layer;
  }
  // The default (kFp32) is an explicit precision and overrides it.
  CompileOptions fp32_opts;
  fp32_opts.backend = Backend::kCsr;
  for (const auto& r : weight_reports(CompiledNetwork::from_checkpoint(path, fp32_opts))) {
    EXPECT_EQ(r.precision, sparse::Precision::kFp32) << r.layer;
  }
}

TEST(QuantRuntimeTest, ParseWeightPrecisionRoundTrips) {
  EXPECT_EQ(parse_weight_precision("auto"), WeightPrecision::kAuto);
  EXPECT_EQ(parse_weight_precision("fp32"), WeightPrecision::kFp32);
  EXPECT_EQ(parse_weight_precision("int8"), WeightPrecision::kInt8);
  EXPECT_THROW((void)parse_weight_precision("int4"), std::invalid_argument);
  EXPECT_THROW((void)parse_weight_precision("bf16"), std::invalid_argument);
  EXPECT_STREQ(weight_precision_name(WeightPrecision::kInt8), "int8");
}

}  // namespace
}  // namespace ndsnn::runtime
