#include "train/trainer.hpp"
#include "util/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace cgps {
namespace {

CircuitDataset& small_dataset() {
  static CircuitDataset ds = [] {
    DatasetOptions options;
    options.seed = 5;
    return build_dataset(gen::DatasetId::kTimingControl, options);
  }();
  return ds;
}

GpsConfig tiny_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  c.dropout = 0.0f;
  c.attn = AttnKind::kNone;  // fastest configuration for tests
  return c;
}

TEST(NormalizeCap, WindowMapping) {
  EXPECT_EQ(normalize_cap(0.0), 0.0f);
  EXPECT_EQ(normalize_cap(1e-22), 0.0f);
  EXPECT_NEAR(normalize_cap(1e-18), 0.5f, 1e-5);
  EXPECT_NEAR(normalize_cap(1e-15), 1.0f, 1e-5);
  EXPECT_NEAR(normalize_cap(1e-12), 1.0f, 1e-5);  // clipped
}

TEST(NormalizeCap, RoundTripInsideWindow) {
  for (double c : {3e-21, 1e-19, 4.2e-18, 7e-16}) {
    EXPECT_NEAR(denormalize_cap(normalize_cap(c)), c, c * 1e-3);
  }
  EXPECT_EQ(denormalize_cap(0.0f), 0.0);
}

TEST(TaskDataTest, LinkTaskAlignment) {
  Rng rng(1);
  const TaskData data = TaskData::for_links(small_dataset(), {}, 50, rng);
  EXPECT_LE(data.size(), 50);
  EXPECT_GT(data.size(), 0);
  EXPECT_EQ(data.subgraphs.size(), data.labels.size());
  EXPECT_EQ(data.subgraphs.size(), data.targets.size());
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    if (data.labels[i] < 0.5f) {
      EXPECT_EQ(data.targets[i], 0.0f);
    }
  }
}

TEST(TaskDataTest, EdgeRegressionPositivesOnly) {
  Rng rng(2);
  const TaskData data = TaskData::for_edge_regression(small_dataset(), {}, 50, rng);
  EXPECT_GT(data.size(), 0);
  for (float t : data.targets) EXPECT_GT(t, 0.0f);
}

TEST(TaskDataTest, NodeTaskTwoHop) {
  Rng rng(3);
  SubgraphOptions options;
  options.hops = 2;
  const TaskData data = TaskData::for_nodes(small_dataset(), options, 20, rng);
  EXPECT_GT(data.size(), 0);
  for (const Subgraph& sg : data.subgraphs) EXPECT_EQ(sg.second_anchor, 0);
}

TEST(FitNormalizerTest, CoversSubgraphNodes) {
  Rng rng(4);
  const TaskData data = TaskData::for_links(small_dataset(), {}, 30, rng);
  const TaskData* tasks[] = {&data};
  const XcNormalizer norm = fit_normalizer(tasks);
  EXPECT_TRUE(norm.fitted());
}

TEST(Training, LinkPredictionLearnsOnTrainingSet) {
  Rng rng(6);
  const TaskData train = TaskData::for_links(small_dataset(), {}, 160, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  GpsConfig config = tiny_config();
  CircuitGps model(config);

  const BinaryMetrics before = evaluate_link_prediction(model, norm, train);
  TrainOptions options;
  options.epochs = 4;
  options.batch_size = 16;
  options.lr = 3e-3f;
  const double seconds = train_link_prediction(model, norm, tasks, options);
  EXPECT_GT(seconds, 0.0);
  const BinaryMetrics after = evaluate_link_prediction(model, norm, train);
  EXPECT_GT(after.auc, before.auc - 0.05);  // must not get worse
  EXPECT_GT(after.auc, 0.75);               // and must actually learn
}

TEST(Training, RegressionReducesMae) {
  Rng rng(7);
  const TaskData train = TaskData::for_edge_regression(small_dataset(), {}, 120, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  CircuitGps model(tiny_config());
  const RegressionMetrics before = evaluate_regression(model, norm, train);
  TrainOptions options;
  options.epochs = 5;
  options.batch_size = 16;
  const double seconds = train_regression(model, norm, tasks, options);
  EXPECT_GT(seconds, 0.0);
  const RegressionMetrics after = evaluate_regression(model, norm, train);
  EXPECT_LT(after.mae, before.mae);
}

TEST(Training, HeadOnlyFineTuneTouchesOnlyHead) {
  Rng rng(8);
  const TaskData train = TaskData::for_edge_regression(small_dataset(), {}, 40, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  CircuitGps model(tiny_config());
  // Snapshot backbone weights.
  std::vector<std::vector<float>> backbone_before;
  for (const auto& [name, p] : model.named_parameters()) {
    if (name.rfind("head_", 0) != 0)
      backbone_before.emplace_back(p.data().begin(), p.data().end());
  }
  model.freeze_backbone();
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  train_regression(model, norm, tasks, options);

  std::size_t k = 0;
  for (const auto& [name, p] : model.named_parameters()) {
    if (name.rfind("head_", 0) == 0) continue;
    const auto& before = backbone_before[k++];
    for (std::size_t j = 0; j < before.size(); ++j) EXPECT_EQ(before[j], p.data()[j]);
  }
}

TEST(Training, NonFiniteLossFailsFastNamingEpochAndStep) {
  Rng rng(10);
  TaskData train = TaskData::for_edge_regression(small_dataset(), {}, 40, rng);
  std::fill(train.targets.begin(), train.targets.end(),
            std::numeric_limits<float>::quiet_NaN());
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);

  CircuitGps model(tiny_config());
  std::vector<std::vector<float>> before;
  for (const auto& [name, p] : model.named_parameters())
    before.emplace_back(p.data().begin(), p.data().end());
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  const std::string log_path = ::testing::TempDir() + "cgps_nonfinite_run_log.jsonl";
  std::remove(log_path.c_str());
  ::setenv("CIRCUITGPS_RUN_LOG", log_path.c_str(), 1);
  try {
    train_regression(model, norm, tasks, options);
    ADD_FAILURE() << "a NaN loss must stop training";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("epoch 0 step 0"), std::string::npos) << what;
  }
  ::unsetenv("CIRCUITGPS_RUN_LOG");
  // The run log records the failure: one cgps-train-v1 record whose error
  // names the epoch and step.
  std::vector<std::string> lines;
  {
    std::ifstream in(log_path);
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) lines.push_back(line);
  }
  std::remove(log_path.c_str());
  ASSERT_EQ(lines.size(), 1u);
  std::string parse_error;
  const auto record = json_parse(lines[0], &parse_error);
  ASSERT_TRUE(record.has_value()) << parse_error;
  ASSERT_NE(record->find("schema"), nullptr);
  EXPECT_EQ(record->find("schema")->string, "cgps-train-v1");
  ASSERT_NE(record->find("error"), nullptr);
  EXPECT_NE(record->find("error")->string.find("epoch 0 step 0"), std::string::npos)
      << record->find("error")->string;
  // The failing step never reached the optimizer.
  std::size_t k = 0;
  for (const auto& [name, p] : model.named_parameters()) {
    const auto& want = before[k++];
    for (std::size_t j = 0; j < want.size(); ++j) ASSERT_EQ(want[j], p.data()[j]) << name;
  }
}

TEST(Training, PredictRegressionInUnitInterval) {
  Rng rng(9);
  const TaskData data = TaskData::for_edge_regression(small_dataset(), {}, 30, rng);
  const TaskData* tasks[] = {&data};
  const XcNormalizer norm = fit_normalizer(tasks);
  CircuitGps model(tiny_config());
  const auto preds = predict_regression(model, norm, data);
  EXPECT_EQ(preds.size(), static_cast<std::size_t>(data.size()));
  for (float p : preds) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

}  // namespace
}  // namespace cgps
