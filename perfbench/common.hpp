// Shared pieces of the cgps_perfbench harness: order statistics, the run
// result the harness prints, timed design ingest, the served demo model and
// solo recomputation. See README.md for the workloads.
#pragma once

#include "gen/designs.hpp"
#include "gps/batch.hpp"
#include "gps/config.hpp"
#include "gps/model.hpp"
#include "graph/subgraph.hpp"
#include "train/dataset.hpp"
#include "util/json_writer.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace cgps::perfbench {

// ---- order statistics -----------------------------------------------------

// Linear-interpolation quantile (q in [0, 1]); NaN for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

// Seconds on the steady clock since an arbitrary origin.
double now_s();

// ---- run result -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one harness run reports: end-to-end metrics, per-layer metrics (traced
// runs only), operation counts and output-check failures.
struct RunResult {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;

  void add_e2e(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
  void fail_check(std::string what);
  bool correct() const { return check_failures.empty(); }
  double success_rate() const {
    return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted > 0 ? attempted : 1);
  }
  // One JSON object: {"correct", "attempted", "failed", "e2e", "layers",
  // "check_failures"}; run.py turns it into the benchmark's result line.
  std::string to_json() const;
};

// ---- design ingest ----------------------------------------------------------

// Seconds spent in each design-ingest layer, summed over the designs built.
struct IngestTimes {
  double make_design_s = 0.0;    // gen
  double flatten_s = 0.0;        // netlist
  double circuit_graph_s = 0.0;  // graph::build_circuit_graph
  double place_s = 0.0;          // layout
  double extract_s = 0.0;        // parasitics
  double link_samples_s = 0.0;   // graph: link + node samples, link graph
};

// build_dataset() step by step, with each layer's public call timed. Same
// calls, same order and same seeds as train/dataset.cpp, so the dataset is
// the one build_dataset(id, options) returns.
CircuitDataset build_dataset_timed(gen::DatasetId id, const DatasetOptions& options,
                                   IngestTimes& times);

// Dataset options derived from the workload seed (build_dataset derives each
// design's placement and target-sampling seeds from it).
DatasetOptions dataset_options(std::uint64_t seed, double train_scale);

// ---- models -----------------------------------------------------------------

// The model `cgps_serve --demo` serves (tools/cgps_serve.cpp): default
// GpsConfig with hidden 32, 2 layers, 4 heads, seed 7.
GpsConfig demo_config();

// The X_C normalizer `cgps_serve --demo` fits: XcNormalizer::fit over the
// served designs' rows, in serving order.
XcNormalizer demo_normalizer(const std::vector<const CircuitGraph*>& served);

// One prediction on its own: extract, assemble a one-graph batch, eager
// forward, then the serving transform (sigmoid for links, clamp to [0, 1] for
// capacitances). `node_b` < 0 asks for a node task.
float solo_prediction(CircuitGps& model, const HeteroGraph& graph,
                      const std::vector<std::array<float, kXcDim>>& xc,
                      const XcNormalizer& normalizer, std::int32_t node_a,
                      std::int32_t node_b, const SubgraphOptions& options, bool link);

// ---- process and files --------------------------------------------------------

// Peak resident set of this process, bytes (getrusage).
double self_peak_rss_bytes();

// Parse every line of a JSONL file; unparsable lines are skipped.
std::vector<JsonValue> read_jsonl(const std::string& path);

// Number member of a JSON object, or `fallback` when absent / not a number.
double json_number(const JsonValue& object, std::string_view key, double fallback = 0.0);

}  // namespace cgps::perfbench
