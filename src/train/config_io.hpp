// Experiment configuration files (the paper drives its experiments with
// GraphGym-style config files; this is the equivalent for this repo).
//
// Format: one `key value` (or `key = value`) pair per line, `#` comments.
// Keys mirror the struct fields, e.g.
//
//   # CircuitGPS, paper Table II configuration
//   gps.hidden        48
//   gps.layers        3
//   gps.mpnn          gatedgcn     # none | gatedgcn | gine
//   gps.attn          performer    # none | transformer | performer
//   gps.pe            dspd         # none | xc | drnl | rwse | lappe | dspd
//   train.epochs      14
//   train.lr          2e-3
//   subgraph.hops     1
#pragma once

#include "gps/config.hpp"
#include "graph/subgraph.hpp"
#include "train/trainer.hpp"

#include <string>

namespace cgps {

struct ExperimentConfig {
  GpsConfig gps;
  TrainOptions train;
  SubgraphOptions subgraph;
};

// Parse from text; unknown keys, unparseable values and architecture sizes
// (gps.hidden/layers/heads/performer_features/head_hidden) below 1 throw
// std::runtime_error with the offending line.
ExperimentConfig parse_experiment_config(const std::string& text);

// Load from a file path.
ExperimentConfig load_experiment_config(const std::string& path);

// Serialize back to config-file text (stable round trip).
std::string to_config_text(const ExperimentConfig& config);

}  // namespace cgps
