#include "train/config_io.hpp"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>

namespace cgps {
namespace {

TEST(ConfigIo, ParsesAllKeys) {
  const ExperimentConfig c = parse_experiment_config(R"(
# comment line
gps.hidden   64
gps.layers = 4
gps.mpnn     gine
gps.attn     transformer
gps.heads    8
gps.performer_features 24
gps.dropout  0.2
gps.pe       lappe
gps.rwse_steps 5
gps.lappe_k  6
gps.head_hidden 40
gps.seed     99
train.epochs 21
train.batch_size 12
train.lr     5e-4
train.grad_clip 1.5
train.weight_decay 1e-5
train.target_weight_alpha 2.5
subgraph.hops 2
subgraph.max_nodes_per_anchor 48
)");
  EXPECT_EQ(c.gps.hidden, 64);
  EXPECT_EQ(c.gps.layers, 4);
  EXPECT_EQ(c.gps.mpnn, MpnnKind::kGine);
  EXPECT_EQ(c.gps.attn, AttnKind::kTransformer);
  EXPECT_EQ(c.gps.heads, 8);
  EXPECT_EQ(c.gps.performer_features, 24);
  EXPECT_FLOAT_EQ(c.gps.dropout, 0.2f);
  EXPECT_EQ(c.gps.pe, PeKind::kLappe);
  EXPECT_EQ(c.gps.rwse_steps, 5);
  EXPECT_EQ(c.gps.lappe_k, 6);
  EXPECT_EQ(c.gps.head_hidden, 40);
  EXPECT_EQ(c.gps.seed, 99u);
  EXPECT_EQ(c.train.epochs, 21);
  EXPECT_EQ(c.train.batch_size, 12);
  EXPECT_FLOAT_EQ(c.train.lr, 5e-4f);
  EXPECT_FLOAT_EQ(c.train.grad_clip, 1.5f);
  EXPECT_FLOAT_EQ(c.train.weight_decay, 1e-5f);
  EXPECT_FLOAT_EQ(c.train.target_weight_alpha, 2.5f);
  EXPECT_EQ(c.subgraph.hops, 2);
  EXPECT_EQ(c.subgraph.max_nodes_per_anchor, 48);
}

TEST(ConfigIo, DefaultsWhenEmpty) {
  const ExperimentConfig c = parse_experiment_config("# nothing but comments\n\n");
  const ExperimentConfig d;
  EXPECT_EQ(c.gps.hidden, d.gps.hidden);
  EXPECT_EQ(c.train.epochs, d.train.epochs);
}

TEST(ConfigIo, RoundTripThroughText) {
  ExperimentConfig original;
  original.gps.hidden = 56;
  original.gps.mpnn = MpnnKind::kNone;
  original.gps.pe = PeKind::kRwse;
  original.train.lr = 1.25e-3f;
  original.subgraph.hops = 2;
  const ExperimentConfig reparsed = parse_experiment_config(to_config_text(original));
  EXPECT_EQ(reparsed.gps.hidden, original.gps.hidden);
  EXPECT_EQ(reparsed.gps.mpnn, original.gps.mpnn);
  EXPECT_EQ(reparsed.gps.pe, original.gps.pe);
  EXPECT_FLOAT_EQ(reparsed.train.lr, original.train.lr);
  EXPECT_EQ(reparsed.subgraph.hops, original.subgraph.hops);
}

TEST(ConfigIo, RejectsGarbage) {
  EXPECT_THROW(parse_experiment_config("gps.hidden\n"), std::runtime_error);
  EXPECT_THROW(parse_experiment_config("unknown.key 3\n"), std::runtime_error);
  EXPECT_THROW(parse_experiment_config("gps.hidden abc\n"), std::runtime_error);
  EXPECT_THROW(parse_experiment_config("gps.mpnn sage\n"), std::runtime_error);
  EXPECT_THROW(parse_experiment_config("gps.attn linear\n"), std::runtime_error);
  EXPECT_THROW(parse_experiment_config("gps.pe spd\n"), std::runtime_error);
}

TEST(ConfigIo, RejectsNonPositiveArchitectureSizes) {
  // A zero here used to reach `dim % heads` (SIGFPE) or build empty layers.
  for (const char* key : {"gps.hidden", "gps.layers", "gps.heads", "gps.performer_features",
                          "gps.head_hidden"}) {
    for (const char* value : {"0", "-3"}) {
      const std::string text = std::string(key) + " " + value + "\n";
      EXPECT_THROW(parse_experiment_config(text), std::runtime_error) << text;
    }
    EXPECT_NO_THROW(parse_experiment_config(std::string(key) + " 1\n")) << key;
  }
}

TEST(ConfigIo, LoadsFromFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cgps_config_test.cfg").string();
  {
    std::ofstream out(path);
    out << "gps.hidden 40\ntrain.epochs 3\n";
  }
  const ExperimentConfig c = load_experiment_config(path);
  EXPECT_EQ(c.gps.hidden, 40);
  EXPECT_EQ(c.train.epochs, 3);
  std::filesystem::remove(path);
  EXPECT_THROW(load_experiment_config("/nonexistent.cfg"), std::runtime_error);
}

TEST(ConfigIo, ShippedExampleConfigsParse) {
  // The configs under examples/configs must stay valid.
  for (const char* rel : {"examples/configs/paper_table2_dspd.cfg",
                          "examples/configs/fast_mpnn_only.cfg"}) {
    const std::filesystem::path path = std::filesystem::path(CGPS_SOURCE_DIR) / rel;
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_NO_THROW(load_experiment_config(path.string()));
  }
}

}  // namespace
}  // namespace cgps
