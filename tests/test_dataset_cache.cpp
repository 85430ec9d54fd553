#include "train/dataset_cache.hpp"
#include "util/serialize.hpp"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

namespace cgps {
namespace {

std::string temp_dir() {
  const auto dir = std::filesystem::temp_directory_path() / "cgps_ds_cache_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

DatasetOptions options_fixture() {
  DatasetOptions options;
  options.seed = 77;
  return options;
}

void expect_equal_datasets(const CircuitDataset& a, const CircuitDataset& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.is_train, b.is_train);
  EXPECT_EQ(a.netlist.num_devices(), b.netlist.num_devices());
  EXPECT_EQ(a.netlist.num_nets(), b.netlist.num_nets());
  EXPECT_EQ(a.netlist.num_pins(), b.netlist.num_pins());
  ASSERT_EQ(a.extraction.links.size(), b.extraction.links.size());
  for (std::size_t i = 0; i < a.extraction.links.size(); ++i) {
    EXPECT_EQ(a.extraction.links[i].a, b.extraction.links[i].a);
    EXPECT_EQ(a.extraction.links[i].kind, b.extraction.links[i].kind);
    EXPECT_DOUBLE_EQ(a.extraction.links[i].cap, b.extraction.links[i].cap);
  }
  ASSERT_EQ(a.link_samples.size(), b.link_samples.size());
  for (std::size_t i = 0; i < a.link_samples.size(); ++i) {
    EXPECT_EQ(a.link_samples[i].node_a, b.link_samples[i].node_a);
    EXPECT_EQ(a.link_samples[i].label, b.link_samples[i].label);
  }
  ASSERT_EQ(a.node_samples.size(), b.node_samples.size());
  // Derived state rebuilt identically.
  EXPECT_EQ(a.graph.graph.num_nodes(), b.graph.graph.num_nodes());
  EXPECT_EQ(a.link_graph.num_edges(), b.link_graph.num_edges());
  ASSERT_EQ(a.placement.device_center.size(), b.placement.device_center.size());
  for (std::size_t i = 0; i < a.placement.device_center.size(); ++i)
    EXPECT_EQ(a.placement.device_center[i].x, b.placement.device_center[i].x);
}

TEST(DatasetCache, SaveLoadRoundTrip) {
  const DatasetOptions options = options_fixture();
  const CircuitDataset original = build_dataset(gen::DatasetId::kTimingControl, options);
  const std::string path = temp_dir() + "/roundtrip.cgds";
  save_dataset(original, path);
  const CircuitDataset loaded = load_dataset(path, options);
  expect_equal_datasets(original, loaded);
  std::filesystem::remove(path);
}

TEST(DatasetCache, CachedBuildHitsAndMatches) {
  const DatasetOptions options = options_fixture();
  const std::string dir = temp_dir() + "/hits";
  std::filesystem::remove_all(dir);
  const CircuitDataset first =
      build_dataset_cached(gen::DatasetId::kTimingControl, options, dir);
  // Second call must read the file written by the first.
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  const CircuitDataset second =
      build_dataset_cached(gen::DatasetId::kTimingControl, options, dir);
  expect_equal_datasets(first, second);
  std::filesystem::remove_all(dir);
}

TEST(DatasetCache, KeyChangesWithOptions) {
  DatasetOptions a = options_fixture();
  DatasetOptions b = a;
  b.seed = 78;
  DatasetOptions c = a;
  c.extraction.pin_radius *= 2;
  const auto id = gen::DatasetId::kSsram;
  EXPECT_NE(dataset_cache_key(id, a), dataset_cache_key(id, b));
  EXPECT_NE(dataset_cache_key(id, a), dataset_cache_key(id, c));
  EXPECT_EQ(dataset_cache_key(id, a), dataset_cache_key(id, a));
  EXPECT_NE(dataset_cache_key(gen::DatasetId::kSsram, a),
            dataset_cache_key(gen::DatasetId::kUltra8t, a));
}

TEST(DatasetCache, CorruptFileFallsBackToBuild) {
  const DatasetOptions options = options_fixture();
  const std::string dir = temp_dir() + "/corrupt";
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + dataset_cache_key(gen::DatasetId::kTimingControl, options);
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  const CircuitDataset ds = build_dataset_cached(gen::DatasetId::kTimingControl, options, dir);
  EXPECT_GT(ds.netlist.num_devices(), 0);
  std::filesystem::remove_all(dir);
}

TEST(DatasetCache, BadMagicThrows) {
  const std::string path = temp_dir() + "/bad.cgds";
  {
    std::ofstream out(path, std::ios::binary);
    out << "XXXXYYYY";
  }
  EXPECT_THROW(load_dataset(path, options_fixture()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(DatasetCache, HugeLinkCountIsRejectedNotAllocated) {
  // A well-formed header and empty netlist followed by a link count of
  // 1 EiB: load_dataset must report a malformed file instead of reserving.
  const std::string path = temp_dir() + "/huge_links.cgds";
  {
    BinaryWriter w(path);
    w.write_u32(0x43474453u);  // "CGDS"
    w.write_string("TIMING_CONTROL");
    w.write_u32(0);
    w.write_string("netlist");
    w.write_u64(0);  // nets
    w.write_u64(0);  // devices
    w.write_u64(1ULL << 60);
    w.write_u64(0);
  }
  EXPECT_THROW(load_dataset(path, options_fixture()), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cgps
