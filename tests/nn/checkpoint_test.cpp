#include "nn/checkpoint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "nn/models/zoo.hpp"
#include "util/fault_injection.hpp"

namespace ndsnn::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

ModelSpec spec(uint64_t seed = 42) {
  ModelSpec s;
  s.num_classes = 4;
  s.in_channels = 1;
  s.image_size = 8;
  s.timesteps = 2;
  s.width_scale = 0.5;
  s.seed = seed;
  return s;
}

TEST(CheckpointTest, RoundTripRestoresExactPredictions) {
  auto a = make_lenet5(spec(1));
  auto b = make_lenet5(spec(2));  // different init

  // Different seeds -> different weights (predictions may coincide on a
  // weak input if no neuron fires, so compare the weights directly).
  bool differ = false;
  {
    const auto pa = a->params();
    const auto pb = b->params();
    for (int64_t i = 0; i < pa[0].value->numel(); ++i) {
      if (pa[0].value->at(i) != pb[0].value->at(i)) differ = true;
    }
  }
  ASSERT_TRUE(differ);

  std::stringstream buf;
  save_checkpoint(buf, *a);
  load_checkpoint(buf, *b);

  Tensor batch(Shape{2, 1, 8, 8}, 0.9F);
  const Tensor pred_a = a->predict(batch);
  const Tensor pred_b = b->predict(batch);
  for (int64_t i = 0; i < pred_a.numel(); ++i) {
    EXPECT_EQ(pred_b.at(i), pred_a.at(i));
  }
  // And the weights themselves are identical.
  const auto pa = a->params();
  const auto pb = b->params();
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (int64_t i = 0; i < pa[p].value->numel(); ++i) {
      ASSERT_EQ(pb[p].value->at(i), pa[p].value->at(i)) << pa[p].name;
    }
  }
}

TEST(CheckpointTest, PreservesSparsePattern) {
  auto net = make_lenet5(spec());
  // Zero half the first conv's weights, save, reload into a fresh net.
  auto params = net->params();
  for (int64_t i = 0; i < params[0].value->numel(); i += 2) params[0].value->at(i) = 0.0F;
  const int64_t zeros = params[0].value->count_zeros();

  std::stringstream buf;
  save_checkpoint(buf, *net);
  auto fresh = make_lenet5(spec(99));
  load_checkpoint(buf, *fresh);
  EXPECT_EQ(fresh->params()[0].value->count_zeros(), zeros);
}

TEST(CheckpointTest, ArchitectureMismatchRejected) {
  auto lenet = make_lenet5(spec());
  auto other_spec = spec();
  other_spec.width_scale = 1.0;  // different shapes
  auto wide = make_lenet5(other_spec);

  std::stringstream buf;
  save_checkpoint(buf, *lenet);
  EXPECT_THROW(load_checkpoint(buf, *wide), std::runtime_error);
}

TEST(CheckpointTest, MetaRoundTripsThroughV2Format) {
  auto net = make_lenet5(spec(7));
  CheckpointMeta meta;
  meta.arch = "lenet5";
  meta.spec = spec(7);
  meta.spec.lif.alpha = 0.625F;
  meta.spec.lif.threshold = 1.25F;
  meta.spec.lif.detach_reset = false;
  meta.spec.lif.surrogate = snn::SurrogateKind::kTriangle;

  std::stringstream buf;
  save_checkpoint(buf, *net, meta);
  const CheckpointMeta got = read_checkpoint_meta(buf);
  EXPECT_EQ(got.arch, "lenet5");
  EXPECT_EQ(got.spec.num_classes, meta.spec.num_classes);
  EXPECT_EQ(got.spec.in_channels, meta.spec.in_channels);
  EXPECT_EQ(got.spec.image_size, meta.spec.image_size);
  EXPECT_EQ(got.spec.timesteps, meta.spec.timesteps);
  EXPECT_EQ(got.spec.width_scale, meta.spec.width_scale);
  EXPECT_EQ(got.spec.lif.alpha, meta.spec.lif.alpha);
  EXPECT_EQ(got.spec.lif.threshold, meta.spec.lif.threshold);
  EXPECT_EQ(got.spec.lif.detach_reset, meta.spec.lif.detach_reset);
  EXPECT_EQ(got.spec.lif.surrogate, meta.spec.lif.surrogate);
}

TEST(CheckpointTest, V2RestoresIntoLiveNetworkAndRebuildsStandalone) {
  auto a = make_lenet5(spec(3));
  const std::string path = ::testing::TempDir() + "/ckpt_v2.ndck";
  save_checkpoint_file(path, *a, CheckpointMeta{"lenet5", spec(3)});

  // load_checkpoint skips the meta block for a live network...
  auto b = make_lenet5(spec(4));
  load_checkpoint_file(path, *b);
  // ...and load_checkpoint_network rebuilds the architecture itself.
  auto c = load_checkpoint_network(path);

  Tensor batch(Shape{2, 1, 8, 8}, 0.9F);
  const Tensor pred_a = a->predict(batch);
  const Tensor pred_b = b->predict(batch);
  const Tensor pred_c = c->predict(batch);
  for (int64_t i = 0; i < pred_a.numel(); ++i) {
    EXPECT_EQ(pred_b.at(i), pred_a.at(i));
    EXPECT_EQ(pred_c.at(i), pred_a.at(i));
  }
}

TEST(CheckpointTest, V3RoundTripsQuantRecordExactly) {
  auto net = make_lenet5(spec(11));
  const QuantRecord record = build_quant_record(*net, sparse::Precision::kInt8);
  ASSERT_FALSE(record.layers.empty());
  // One entry per prunable parameter, scales per lowered weight row.
  int prunable = 0;
  for (const auto& p : net->params()) prunable += p.prunable;
  EXPECT_EQ(static_cast<int>(record.layers.size()), prunable);

  std::stringstream buf;
  save_checkpoint(buf, *net, CheckpointMeta{"lenet5", spec(11)}, record);
  const QuantRecord got = read_checkpoint_quant(buf);
  ASSERT_EQ(got.layers.size(), record.layers.size());
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    EXPECT_EQ(got.layers[i].param, record.layers[i].param);
    EXPECT_EQ(got.layers[i].precision, sparse::Precision::kInt8);
    ASSERT_EQ(got.layers[i].scales.size(), record.layers[i].scales.size());
    for (std::size_t g = 0; g < got.layers[i].scales.size(); ++g) {
      EXPECT_EQ(got.layers[i].scales[g], record.layers[i].scales[g]);
    }
  }
  // Scales regenerate deterministically from the stored fp32 weights.
  const QuantRecord regen = build_quant_record(*net, sparse::Precision::kInt8);
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    EXPECT_EQ(regen.layers[i].scales, got.layers[i].scales) << got.layers[i].param;
  }
}

/// Precision tag 2 marks a packed-int4 plane, which older writers
/// emitted and the runtime cannot build: a v3 record carrying it is
/// refused with an error naming the parameter, by the record reader and
/// by the standalone rebuild.
TEST(CheckpointTest, V3RecordWithInt4TagIsRefused) {
  auto net = make_lenet5(spec(13));
  QuantRecord record = build_quant_record(*net, sparse::Precision::kInt8);
  ASSERT_GE(record.layers.size(), 2U);
  record.layers[1].precision = static_cast<sparse::Precision>(2);
  const std::string param = record.layers[1].param;
  const std::string path = ::testing::TempDir() + "/int4_tag.ndck";
  save_checkpoint_file(path, *net, CheckpointMeta{"lenet5", spec(13)}, record);

  const auto expect_refused = [&](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "int4 precision tag was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(param), std::string::npos) << e.what();
    }
  };
  expect_refused([&] { (void)read_checkpoint_quant_file(path); });
  expect_refused([&] { (void)load_checkpoint_network(path); });
}

/// Cross-version load matrix: every writer version against every
/// reader. Old files keep loading; new sections are skipped by the
/// restore-into-live-network path and surfaced by the dedicated readers.
TEST(CheckpointTest, CrossVersionLoadMatrix) {
  auto net = make_lenet5(spec(21));
  const Tensor batch(Shape{2, 1, 8, 8}, 0.9F);
  const Tensor want = net->predict(batch);
  const CheckpointMeta meta{"lenet5", spec(21)};
  const QuantRecord record = build_quant_record(*net, sparse::Precision::kInt8);

  for (int version = 1; version <= 3; ++version) {
    SCOPED_TRACE("writer v" + std::to_string(version));
    const std::string path =
        ::testing::TempDir() + "/cross_v" + std::to_string(version) + ".ndck";
    if (version == 1) {
      save_checkpoint_file(path, *net);
    } else if (version == 2) {
      save_checkpoint_file(path, *net, meta);
    } else {
      save_checkpoint_file(path, *net, meta, record);
    }

    // load_checkpoint restores parameters from every version.
    auto fresh = make_lenet5(spec(99));
    load_checkpoint_file(path, *fresh);
    const Tensor pred = fresh->predict(batch);
    for (int64_t i = 0; i < want.numel(); ++i) ASSERT_EQ(pred.at(i), want.at(i));

    // Meta: v2+. Quant record: v3 only. Standalone rebuild: v2+.
    if (version >= 2) {
      EXPECT_EQ(read_checkpoint_meta_file(path).arch, "lenet5");
      QuantRecord quant;
      quant.layers.resize(7);  // stale content must be cleared for v2
      auto rebuilt = load_checkpoint_network(path, &quant);
      const Tensor pred2 = rebuilt->predict(batch);
      for (int64_t i = 0; i < want.numel(); ++i) ASSERT_EQ(pred2.at(i), want.at(i));
      EXPECT_EQ(quant.layers.size(), version == 3 ? record.layers.size() : 0U);
    } else {
      EXPECT_THROW((void)read_checkpoint_meta_file(path), std::runtime_error);
      EXPECT_THROW((void)load_checkpoint_network(path), std::runtime_error);
    }
    if (version == 3) {
      EXPECT_EQ(read_checkpoint_quant_file(path).layers.size(), record.layers.size());
    } else {
      EXPECT_THROW((void)read_checkpoint_quant_file(path), std::runtime_error);
    }
  }
}

TEST(CheckpointTest, V1HasNoMetaRecord) {
  auto net = make_lenet5(spec());
  std::stringstream buf;
  save_checkpoint(buf, *net);
  EXPECT_THROW((void)read_checkpoint_meta(buf), std::runtime_error);
}

TEST(CheckpointTest, CorruptStreamRejected) {
  auto net = make_lenet5(spec());
  std::stringstream buf("not a checkpoint at all");
  EXPECT_THROW(load_checkpoint(buf, *net), std::runtime_error);
}

TEST(CheckpointTest, TruncatedStreamRejected) {
  auto net = make_lenet5(spec());
  std::stringstream buf;
  save_checkpoint(buf, *net);
  std::string s = buf.str();
  s.resize(s.size() / 3);
  std::stringstream cut(s);
  EXPECT_THROW(load_checkpoint(cut, *net), std::runtime_error);
}

/// Every strict prefix of a v3 file must be rejected with a clear
/// runtime_error — never undefined behavior, never a giant allocation
/// from garbage dims, never a silent partial restore. Sampled stride
/// keeps the sweep fast; the first 256 byte-lengths are covered
/// exhaustively because every header/meta boundary lives there.
TEST(CheckpointTest, TruncatedFileSweepFailsCleanlyAtEveryPrefix) {
  auto net = make_lenet5(spec(31));
  const CheckpointMeta meta{"lenet5", spec(31)};
  const QuantRecord record = build_quant_record(*net, sparse::Precision::kInt8);
  const std::string path = ::testing::TempDir() + "/trunc_sweep.ndck";
  save_checkpoint_file(path, *net, meta, record);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::stringstream whole;
  whole << in.rdbuf();
  const std::string bytes = whole.str();
  ASSERT_GT(bytes.size(), 512U);

  const std::string cut_path = ::testing::TempDir() + "/trunc_cut.ndck";
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 256 ? 1 : bytes.size() / 64)) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    auto fresh = make_lenet5(spec(99));
    EXPECT_THROW(load_checkpoint_file(cut_path, *fresh), std::runtime_error);
    EXPECT_THROW((void)load_checkpoint_network(cut_path), std::runtime_error);
  }
}

TEST(CheckpointTest, SaveIsAtomicUnderAnInjectedWriteFault) {
  auto net = make_lenet5(spec(41));
  const CheckpointMeta meta{"lenet5", spec(41)};
  const std::string path = ::testing::TempDir() + "/atomic.ndck";
  save_checkpoint_file(path, *net, meta);

  std::ifstream before_in(path, std::ios::binary);
  std::stringstream before;
  before << before_in.rdbuf();
  ASSERT_FALSE(before.str().empty());

  // A save that dies mid-write (crash, full disk — here injected) must
  // leave the previous checkpoint byte-identical and no .tmp litter.
  auto changed = make_lenet5(spec(43));  // different weights
  util::fault::FaultInjector::global().arm("checkpoint.write",
                                           util::fault::Rule{1.0, 1, 0});
  EXPECT_THROW(save_checkpoint_file(path, *changed, meta), std::runtime_error);
  util::fault::FaultInjector::global().reset();

  std::ifstream after_in(path, std::ios::binary);
  std::stringstream after;
  after << after_in.rdbuf();
  EXPECT_EQ(after.str(), before.str()) << "original checkpoint was damaged";
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << ".tmp left behind";

  // And the failed writer can succeed on retry.
  save_checkpoint_file(path, *changed, meta);
  auto rebuilt = load_checkpoint_network(path);
  const Tensor batch(Shape{2, 1, 8, 8}, 0.9F);
  const Tensor want = changed->predict(batch);
  const Tensor got = rebuilt->predict(batch);
  for (int64_t i = 0; i < want.numel(); ++i) ASSERT_EQ(got.at(i), want.at(i));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << ".tmp survived a clean save";
}

}  // namespace
}  // namespace ndsnn::nn
