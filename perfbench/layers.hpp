// Per-layer probes of a traced run: the harness times calls into the public
// functions of the graph, gps, exec and train layers on the workload's own
// candidates. Nothing under src/ is instrumented for this.
#pragma once

#include "common.hpp"

#include <cstdint>
#include <vector>

namespace cgps::perfbench {

// One candidate the probes extract, assemble and run.
struct ProbeCandidate {
  const CircuitGraph* source = nullptr;  // X_C rows
  const HeteroGraph* graph = nullptr;    // graph the subgraph is extracted from
  std::int32_t node_a = -1;
  std::int32_t node_b = -1;  // < 0: node task
  SubgraphOptions options;
  float label = 0.0f;  // link label, used as the training-step target
};

// Adds graph.extract_us.*, graph.subgraph_nodes.*, gps.*, exec.* and, when
// `train_steps` is set, train.*_ms_per_step / train.steps / train.samples
// from `steps` eager training steps. `model` is the workload's inference
// model; training probes run on fresh models of `train_config`.
void probe_layers(CircuitGps& model, const XcNormalizer& normalizer,
                  const GpsConfig& train_config, const std::vector<ProbeCandidate>& candidates,
                  bool train_steps, RunResult& result);

// Adds gen/netlist/layout/parasitics and graph ingest timings.
void add_ingest_metrics(const IngestTimes& times, RunResult& result);

}  // namespace cgps::perfbench
