#include "gen/designs.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "tensor/ops.hpp"
#include "train/config_io.hpp"
#include "train/model_io.hpp"
#include "train/trainer.hpp"
#include "util/serialize.hpp"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

namespace cgps {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GpsConfig odd_config() {
  GpsConfig c;
  c.hidden = 24;
  c.layers = 3;
  c.mpnn = MpnnKind::kGine;
  c.attn = AttnKind::kTransformer;
  c.heads = 3;
  c.pe = PeKind::kDrnl;
  c.head_hidden = 20;
  c.seed = 1234;
  return c;
}

TEST(ModelBundle, RoundTripRebuildsArchitectureAndWeights) {
  CircuitGps original(odd_config());
  const std::string path = temp_path("cgps_bundle.bin");
  save_model_bundle(original, path);

  const std::unique_ptr<CircuitGps> loaded = load_model_bundle(path);
  EXPECT_EQ(loaded->config().hidden, 24);
  EXPECT_EQ(loaded->config().mpnn, MpnnKind::kGine);
  EXPECT_EQ(loaded->config().attn, AttnKind::kTransformer);
  EXPECT_EQ(loaded->config().pe, PeKind::kDrnl);
  EXPECT_EQ(loaded->num_parameters(), original.num_parameters());

  const auto a = original.named_parameters();
  const auto b = loaded->named_parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a[i].second.data().size(); ++j)
      EXPECT_EQ(a[i].second.data()[j], b[i].second.data()[j]) << a[i].first;
  }
  std::filesystem::remove(path);
}

TEST(ModelBundle, LoadedModelProducesIdenticalOutputs) {
  // Full pipeline sanity: outputs on a real batch match bit-for-bit.
  const Netlist netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
  const CircuitGraph cg = build_circuit_graph(netlist);
  const Placement placement = place(netlist);
  const ExtractionResult extraction = extract_parasitics(netlist, placement);
  Rng rng(1);
  const auto samples = build_link_samples(cg, extraction.links, rng, {});
  std::vector<Subgraph> subgraphs;
  for (std::size_t i = 0; i < 3; ++i)
    subgraphs.push_back(
        extract_enclosing_subgraph(cg.graph, samples[i].node_a, samples[i].node_b, {}));
  std::vector<const Subgraph*> refs;
  for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
  XcNormalizer norm;
  norm.fit(cg.xc);

  GpsConfig config;
  config.hidden = 16;
  config.layers = 2;
  config.attn = AttnKind::kNone;
  CircuitGps original(config);
  original.set_training(false);

  const std::string path = temp_path("cgps_bundle_fwd.bin");
  save_model_bundle(original, path);
  const auto loaded = load_model_bundle(path);
  loaded->set_training(false);

  const SubgraphBatch batch = make_batch(refs, cg.xc, norm, batch_options_for(config));
  InferenceGuard guard;
  Tensor ya = original.forward(batch);
  Tensor yb = loaded->forward(batch);
  for (std::size_t i = 0; i < ya.data().size(); ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
  std::filesystem::remove(path);
}

TEST(ModelBundle, V2RoundTripsNormalizerBounds) {
  CircuitGps model(odd_config());
  XcNormalizer norm;
  std::vector<std::array<float, kXcDim>> rows(2);
  for (std::size_t j = 0; j < kXcDim; ++j) {
    rows[0][j] = -1.0f - static_cast<float>(j);
    rows[1][j] = 2.0f + static_cast<float>(j);
  }
  norm.fit(rows);

  const std::string path = temp_path("cgps_bundle_v2.bin");
  save_model_bundle(model, path, &norm);
  const ModelBundle bundle = load_model_bundle_full(path);
  ASSERT_TRUE(bundle.normalizer.fitted());
  for (std::size_t j = 0; j < kXcDim; ++j) {
    EXPECT_EQ(bundle.normalizer.min()[j], norm.min()[j]);
    EXPECT_EQ(bundle.normalizer.max()[j], norm.max()[j]);
  }
  EXPECT_EQ(bundle.model->num_parameters(), model.num_parameters());
  std::filesystem::remove(path);
}

TEST(ModelBundle, SavedWithoutNormalizerLoadsUnfitted) {
  CircuitGps model(odd_config());
  const std::string path = temp_path("cgps_bundle_nonorm.bin");
  save_model_bundle(model, path);  // no normalizer recorded
  const ModelBundle bundle = load_model_bundle_full(path);
  EXPECT_FALSE(bundle.normalizer.fitted());
  EXPECT_NE(bundle.model, nullptr);
  std::filesystem::remove(path);
}

TEST(ModelBundle, ReadsLegacyV1Format) {
  // Hand-write a v1 bundle ("CGMB" + config text + checkpoint, no version
  // or normalizer fields) and check the loader still accepts it.
  CircuitGps model(odd_config());
  const std::string path = temp_path("cgps_bundle_v1.bin");
  {
    BinaryWriter writer(path);
    writer.write_u32(0x43474D42u);  // "CGMB"
    ExperimentConfig wrapper;
    wrapper.gps = model.config();
    writer.write_string(to_config_text(wrapper));
    nn::save_checkpoint(model, writer);
  }
  const ModelBundle bundle = load_model_bundle_full(path);
  EXPECT_FALSE(bundle.normalizer.fitted());
  EXPECT_EQ(bundle.model->config().hidden, 24);
  EXPECT_EQ(bundle.model->num_parameters(), model.num_parameters());
  std::filesystem::remove(path);
}

TEST(ModelBundle, RejectsWrongMagic) {
  const std::string path = temp_path("cgps_bundle_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a bundle at all";
  }
  EXPECT_THROW(load_model_bundle(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ModelBundle, HugeStringPrefixIsRejectedNotAllocated) {
  // A v2 header whose config-text length prefix claims 1 EiB: the loader
  // must report a malformed file, not attempt the allocation.
  const std::string path = temp_path("cgps_bundle_huge_prefix.bin");
  {
    BinaryWriter writer(path);
    writer.write_u32(0x324D4743u);  // "CGM2"
    writer.write_u32(2);
    writer.write_u64(1ULL << 60);
    writer.write_string("trailing bytes");
  }
  EXPECT_THROW(load_model_bundle_full(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cgps
