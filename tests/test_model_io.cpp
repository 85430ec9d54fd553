#include "gen/designs.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "tensor/ops.hpp"
#include "train/config_io.hpp"
#include "train/model_io.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

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

// The retired v1 ("CGMB") and v3 ("CGM3", int8 section) formats are refused
// with an error that names the format, not misread as something else.
TEST(ModelBundle, RejectsRetiredFormatsByName) {
  CircuitGps model(odd_config());
  const std::string path = temp_path("cgps_bundle_retired.bin");
  ExperimentConfig wrapper;
  wrapper.gps = model.config();
  for (const auto& [magic, name] : {std::pair<std::uint32_t, std::string>{0x43474D42u, "CGMB"},
                                    std::pair<std::uint32_t, std::string>{0x334D4743u, "CGM3"}}) {
    {
      BinaryWriter writer(path);
      writer.write_u32(magic);
      if (name == "CGM3") writer.write_u32(3);
      writer.write_string(to_config_text(wrapper));
      nn::save_checkpoint(model, writer);
    }
    try {
      load_model_bundle_full(path);
      ADD_FAILURE() << name << " bundle loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
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

// Hand-writes a v2 bundle around `config_text` whose first parameter record
// carries `extra` more (or, negative, fewer) floats than its rows x cols.
void write_bundle(const std::string& path, const CircuitGps& model,
                  const std::string& config_text, std::int64_t extra) {
  BinaryWriter writer(path);
  writer.write_u32(0x324D4743u);  // "CGM2"
  writer.write_u32(2);
  writer.write_string(config_text);
  writer.write_u32(0);            // no normalizer
  writer.write_u32(0x43475053u);  // checkpoint "CGPS"
  const auto params = model.named_parameters();
  writer.write_u64(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params[i].second;
    writer.write_string(params[i].first);
    writer.write_u64(static_cast<std::uint64_t>(t.rows()));
    writer.write_u64(static_cast<std::uint64_t>(t.cols()));
    std::vector<float> data(t.data().begin(), t.data().end());
    if (i == 0) data.resize(static_cast<std::size_t>(t.numel() + extra), 0.5f);
    writer.write_f32_vector(data);
  }
  const auto buffers = model.named_buffers();
  writer.write_u64(buffers.size());
  for (const auto& [name, buf] : buffers) {
    writer.write_string(name);
    writer.write_f32_vector(*buf);
  }
}

std::string config_text_of(const GpsConfig& gps) {
  ExperimentConfig wrapper;
  wrapper.gps = gps;
  return to_config_text(wrapper);
}

TEST(ModelBundle, TensorRecordLengthMustMatchShape) {
  // The float count is stored separately from rows/cols: an overlong record
  // used to be copied past the end of the parameter (heap overflow), a short
  // one to leave stale weights behind silently.
  CircuitGps model(odd_config());
  const std::string path = temp_path("cgps_bundle_record_len.bin");
  const std::string text = config_text_of(model.config());
  write_bundle(path, model, text, 0);
  EXPECT_NO_THROW(load_model_bundle_full(path));
  for (const std::int64_t extra : {std::int64_t{4096}, std::int64_t{1}, std::int64_t{-1}}) {
    write_bundle(path, model, text, extra);
    EXPECT_THROW(load_model_bundle_full(path), std::runtime_error) << "extra=" << extra;
  }
  std::filesystem::remove(path);
}

TEST(ModelBundle, ZeroHeadsIsRejectedNotDividedBy) {
  // `gps.heads 0` used to reach `dim % heads` in the attention constructor
  // and kill the loader with SIGFPE instead of throwing.
  GpsConfig config = odd_config();
  config.attn = AttnKind::kPerformer;
  CircuitGps model(config);
  const std::string path = temp_path("cgps_bundle_zero_heads.bin");
  config.heads = 0;
  write_bundle(path, model, config_text_of(config), 0);
  EXPECT_THROW(load_model_bundle_full(path), std::runtime_error);
  std::filesystem::remove(path);
}

// Corruption fuzz over one small v2 bundle: every truncation (at a stride)
// and every seeded single-bit flip must either load or throw a
// std::exception — the contract cgps_serve's "cannot load" path relies on.
// It must never crash; the sanitizer CI leg runs this too. Every bit of the
// structural prefix (header, config text, normalizer, first record's
// header) is flipped exhaustively, so length prefixes and digits such as the
// '4' in "gps.heads 4" are always hit; the weight payload gets seeded
// random flips.
TEST(ModelBundle, CorruptionFuzzLoadsOrThrows) {
  GpsConfig config;
  config.hidden = 16;
  config.layers = 1;
  config.heads = 4;
  config.performer_features = 8;
  config.head_hidden = 16;
  CircuitGps model(config);
  XcNormalizer norm;
  std::vector<std::array<float, kXcDim>> rows(2);
  for (std::size_t j = 0; j < kXcDim; ++j) rows[1][j] = 1.0f + static_cast<float>(j);
  norm.fit(rows);

  const std::string path = temp_path("cgps_bundle_fuzz.bin");
  save_model_bundle(model, path, &norm);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 1000u);

  int loaded = 0, rejected = 0;
  auto try_load = [&](const std::vector<char>& mutant) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    try {
      load_model_bundle_full(path);
      ++loaded;
    } catch (const std::exception&) {
      ++rejected;
    }
  };

  // Truncations.
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 400);
  for (std::size_t cut = 0; cut < bytes.size(); cut += stride)
    try_load(std::vector<char>(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
  try_load(std::vector<char>(bytes.begin(), bytes.end() - 1));

  // Structural prefix: up to the first parameter's float payload.
  const std::string ckpt_magic = "SPGC";  // 0x43475053 little-endian
  const auto ckpt = std::search(bytes.begin(), bytes.end(), ckpt_magic.begin(), ckpt_magic.end());
  ASSERT_NE(ckpt, bytes.end());
  const std::size_t prefix = static_cast<std::size_t>(ckpt - bytes.begin()) + 4 + 8 + 8 +
                             model.named_parameters()[0].first.size() + 8 + 8 + 8;
  ASSERT_LT(prefix, bytes.size());
  std::vector<char> mutant = bytes;
  for (std::size_t i = 0; i < prefix; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      try_load(mutant);
    }
    mutant[i] = bytes[i];
  }

  // Seeded flips across the whole file.
  Rng rng(20251017);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t i = static_cast<std::size_t>(rng.uniform_int(bytes.size()));
    const int bit = static_cast<int>(rng.uniform_int(8));
    mutant[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    try_load(mutant);
    mutant[i] = bytes[i];
  }

  // Both outcomes occur: payload flips load, structural ones are refused.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cgps
