// Table VI — Error comparison on edge regression (coupling capacitance):
// ParaGraph, DLPL-Cap, CircuitGPS trained from scratch, and the two
// fine-tuned variants (head-only, all-parameter) initialized from a
// link-prediction meta-learner.
#include "common.hpp"

using namespace cgps;
using namespace cgps::bench;

int main() {
  print_header("Table VI: edge regression vs baselines + fine-tuning");
  BenchReport report("table6_edge_regression");
  fill_common_config(report);

  std::vector<CircuitDataset> train_sets;
  train_sets.push_back(load_dataset(gen::DatasetId::kSsram));
  train_sets.push_back(load_dataset(gen::DatasetId::kUltra8t));
  train_sets.push_back(load_dataset(gen::DatasetId::kSandwichRam));
  std::vector<CircuitDataset> test_sets;
  test_sets.push_back(load_dataset(gen::DatasetId::kDigitalClkGen));
  test_sets.push_back(load_dataset(gen::DatasetId::kTimingControl));
  test_sets.push_back(load_dataset(gen::DatasetId::kArray128x32));

  Rng rng(5);
  const SubgraphOptions sg_options = bench_subgraph_options();
  std::vector<TaskData> pre_tasks_v, reg_tasks_v;
  for (const CircuitDataset& ds : train_sets) {
    pre_tasks_v.push_back(TaskData::for_links(ds, sg_options, sizes().train_links, rng));
    reg_tasks_v.push_back(TaskData::for_edge_regression(ds, sg_options, sizes().reg_train, rng));
  }
  std::vector<const TaskData*> pre_ptrs, reg_ptrs;
  for (const TaskData& t : pre_tasks_v) pre_ptrs.push_back(&t);
  for (const TaskData& t : reg_tasks_v) reg_ptrs.push_back(&t);
  const std::span<const TaskData* const> pre_span(pre_ptrs.data(), pre_ptrs.size());
  const std::span<const TaskData* const> reg_span(reg_ptrs.data(), reg_ptrs.size());
  const XcNormalizer gps_norm = fit_normalizer(pre_span);

  const GpsConfig config = bench_gps_config();
  const TrainOptions options = bench_train_options();

  // From scratch.
  CircuitGps scratch(config);
  std::fprintf(stderr, "[bench] CircuitGPS from scratch...\n");
  train_regression(scratch, gps_norm, reg_span, options);

  // Meta-learner pre-trained on link prediction.
  CircuitGps meta(config);
  std::fprintf(stderr, "[bench] pre-training meta-learner...\n");
  train_link_prediction(meta, gps_norm, pre_span, options);

  CircuitGps head_ft(config);
  nn::copy_state(meta, head_ft);
  head_ft.reset_head(901);  // fresh task-specific head (paper §III-D)
  head_ft.freeze_backbone();
  std::fprintf(stderr, "[bench] head-only fine-tune...\n");
  train_regression(head_ft, gps_norm, reg_span, options);

  CircuitGps all_ft(config);
  nn::copy_state(meta, all_ft);
  all_ft.reset_head(902);
  std::fprintf(stderr, "[bench] all-parameter fine-tune...\n");
  train_regression(all_ft, gps_norm, reg_span, options);

  // Baselines.
  std::vector<const CircuitDataset*> train_ptrs;
  for (const CircuitDataset& ds : train_sets) train_ptrs.push_back(&ds);
  const std::span<const CircuitDataset* const> train_span(train_ptrs.data(), train_ptrs.size());
  const XcNormalizer base_norm = fit_full_graph_normalizer(train_span);
  ParaGraph paragraph(bench_baseline_config());
  std::fprintf(stderr, "[bench] training ParaGraph...\n");
  train_baseline_edge_regression(paragraph, train_span, base_norm,
                                 bench_baseline_train_options());
  DlplCap dlpl(bench_baseline_config());
  std::fprintf(stderr, "[bench] training DLPL-Cap...\n");
  train_baseline_edge_regression(dlpl, train_span, base_norm, bench_baseline_train_options());

  // Evaluation.
  std::vector<std::string> header{"Method"};
  for (const CircuitDataset& ds : test_sets) {
    header.push_back(ds.name + " MAE");
    header.push_back("RMSE");
    header.push_back("R2");
  }
  TextTable table(header);
  // Stable metric keys per method × design (<method>.<design>.mae|rmse|r2)
  // plus per-method means — the rows the trend gate tracks. Method keys:
  // paragraph, dlpl_cap, circuitgps, circuitgps_head_ft, circuitgps_all_ft.
  auto add_method_metrics = [&](const std::string& method,
                                const std::vector<RegressionMetrics>& per_design) {
    double mae = 0, rmse = 0, r2 = 0;
    for (std::size_t i = 0; i < per_design.size(); ++i) {
      const std::string key = method + "." + metric_key(test_sets[i].name);
      report.add_metric(key + ".mae", per_design[i].mae, MetricDirection::kLowerIsBetter);
      report.add_metric(key + ".rmse", per_design[i].rmse, MetricDirection::kLowerIsBetter);
      report.add_metric(key + ".r2", per_design[i].r2, MetricDirection::kHigherIsBetter);
      mae += per_design[i].mae;
      rmse += per_design[i].rmse;
      r2 += per_design[i].r2;
    }
    const double n = per_design.empty() ? 1.0 : static_cast<double>(per_design.size());
    report.add_metric(method + ".mean_mae", mae / n, MetricDirection::kLowerIsBetter);
    report.add_metric(method + ".mean_rmse", rmse / n, MetricDirection::kLowerIsBetter);
    report.add_metric(method + ".mean_r2", r2 / n, MetricDirection::kHigherIsBetter);
  };
  auto add_baseline_row = [&](const char* name, FullGraphBaseline& model) {
    std::vector<std::string> row{name};
    std::vector<RegressionMetrics> per_design;
    for (const CircuitDataset& ds : test_sets) {
      const RegressionMetrics m = evaluate_baseline_edge(model, ds, base_norm);
      per_design.push_back(m);
      row.push_back(fmt(m.mae, 3));
      row.push_back(fmt(m.rmse, 3));
      row.push_back(fmt(m.r2, 3));
    }
    table.add_row(row);
    add_method_metrics(metric_key(name), per_design);
  };
  auto add_gps_row = [&](const char* name, const std::string& method, CircuitGps& model) {
    std::vector<std::string> row{name};
    std::vector<RegressionMetrics> per_design;
    for (const CircuitDataset& ds : test_sets) {
      const TaskData test = TaskData::for_edge_regression(ds, sg_options, sizes().reg_test, rng);
      const RegressionMetrics m = evaluate_regression(model, gps_norm, test);
      per_design.push_back(m);
      row.push_back(fmt(m.mae, 3));
      row.push_back(fmt(m.rmse, 3));
      row.push_back(fmt(m.r2, 3));
    }
    table.add_row(row);
    add_method_metrics(method, per_design);
  };
  add_baseline_row("ParaGraph", paragraph);
  add_baseline_row("DLPL-Cap", dlpl);
  add_gps_row("CircuitGPS", "circuitgps", scratch);
  add_gps_row("CircuitGPS(head-ft)", "circuitgps_head_ft", head_ft);
  add_gps_row("CircuitGPS(all-ft)", "circuitgps_all_ft", all_ft);

  std::printf("%s\n", table.to_string().c_str());
  std::printf("Paper shape: every CircuitGPS variant beats the baselines; all-ft\n"
              "gives the lowest MAE (paper: >=0.067 MAE reduction vs baselines).\n");
  report.add_table("Table VI: edge regression vs baselines + fine-tuning", table);
  report.write();
  return 0;
}
