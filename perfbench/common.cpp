#include "common.hpp"

#include "graph/circuit_graph.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "parasitics/extraction.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>

namespace cgps::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunResult::add_e2e(std::string name, double value, std::string unit) {
  e2e.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::add_layer(std::string name, double value, std::string unit) {
  layers.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::fail_check(std::string what) { check_failures.push_back(std::move(what)); }

std::string RunResult::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("correct", correct());
  w.field("attempted", attempted);
  w.field("failed", failed);
  for (const auto& [key, metrics] : {std::pair{"e2e", &e2e}, std::pair{"layers", &layers}}) {
    w.key(key).begin_object();
    for (const Metric& m : *metrics) {
      w.key(m.name).begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.end_object();
    }
    w.end_object();
  }
  w.key("check_failures").begin_array();
  for (const std::string& f : check_failures) w.value(f);
  w.end_array();
  w.end_object();
  return w.str();
}

CircuitDataset build_dataset_timed(gen::DatasetId id, const DatasetOptions& options,
                                   IngestTimes& times) {
  CircuitDataset ds;
  ds.name = gen::dataset_name(id);
  ds.is_train = gen::dataset_is_train(id);

  Stopwatch watch;
  const Design design = gen::make_design(id, options.design_scale);
  times.make_design_s += watch.seconds();
  watch.reset();
  ds.netlist = flatten(design);
  times.flatten_s += watch.seconds();
  watch.reset();
  ds.graph = build_circuit_graph(ds.netlist);
  times.circuit_graph_s += watch.seconds();

  PlacerOptions placer = options.placer;
  placer.seed = options.seed ^ static_cast<std::uint64_t>(id);
  watch.reset();
  ds.placement = place(ds.netlist, placer);
  times.place_s += watch.seconds();
  watch.reset();
  ds.extraction = extract_parasitics(ds.netlist, ds.placement, options.extraction);
  times.extract_s += watch.seconds();

  watch.reset();
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id));
  ds.link_samples = build_link_samples(ds.graph, ds.extraction.links, rng, options.link_options);
  ds.node_samples = build_node_samples(ds.graph, ds.extraction, rng, options.max_node_samples);
  ds.link_graph = build_link_graph(ds.graph, ds.link_samples, options.inject_negative_links);
  times.link_samples_s += watch.seconds();
  return ds;
}

DatasetOptions dataset_options(std::uint64_t seed, double train_scale) {
  DatasetOptions options;
  options.seed = 0x5EEDULL + seed * 7919ULL;
  options.design_scale.train_scale = train_scale;
  return options;
}

GpsConfig demo_config() {
  GpsConfig config;
  config.hidden = 32;
  config.layers = 2;
  config.heads = 4;
  config.seed = 7;
  return config;
}

XcNormalizer demo_normalizer(const std::vector<const CircuitGraph*>& served) {
  XcNormalizer normalizer;
  for (const CircuitGraph* cg : served) normalizer.fit(cg->xc);
  return normalizer;
}

float solo_prediction(CircuitGps& model, const HeteroGraph& graph,
                      const std::vector<std::array<float, kXcDim>>& xc,
                      const XcNormalizer& normalizer, std::int32_t node_a,
                      std::int32_t node_b, const SubgraphOptions& options, bool link) {
  const Subgraph sg = extract_enclosing_subgraph(graph, node_a, node_b, options);
  const SubgraphBatch batch =
      make_batch({&sg}, xc, normalizer, batch_options_for(model.config()));
  model.set_training(false);
  InferenceGuard guard;
  const float raw = model.forward(batch).data()[0];
  return link ? kern::sigmoid1(raw) : std::clamp(raw, 0.0f, 1.0f);
}

double self_peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

std::vector<JsonValue> read_jsonl(const std::string& path) {
  std::vector<JsonValue> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto v = json_parse(line)) records.push_back(std::move(*v));
  }
  return records;
}

double json_number(const JsonValue& object, std::string_view key, double fallback) {
  const JsonValue* v = object.find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->number : fallback;
}

}  // namespace cgps::perfbench
