// Target construction: positive coupling links from extraction, structural
// negative links by type-preserving endpoint permutation (paper §III-B), and
// the class balancing used for pre-training.
#pragma once

#include "graph/circuit_graph.hpp"
#include "parasitics/extraction.hpp"
#include "util/rng.hpp"

#include <vector>

namespace cgps {

struct LinkSample {
  std::int32_t node_a = -1;  // graph node id
  std::int32_t node_b = -1;
  std::int8_t type = kLinkPinNet;  // 2/3/4
  float label = 0.0f;              // 1 = coupling present, 0 = absent
  double cap = 0.0;                // farads; 0 for negative links
};

struct LinkSampleOptions {
  // Paper: sample |E_n2n| instances from each link type to balance classes.
  bool balance_types = true;
  // Hard cap per (type, label) bucket after balancing; -1 = no cap. This is
  // the "#links" subsampling of Table IV.
  std::int64_t max_per_type = -1;
  // Cap on total positives that *preserves the natural type mix* (each
  // bucket keeps its proportional share); -1 = no cap. Used by the
  // imbalanced-sampling ablation, where per-type caps would re-balance.
  std::int64_t max_total_positives = -1;
  // Negatives generated per positive.
  double negative_ratio = 1.0;
};

// Convert extraction links to graph-node pairs and add permuted negatives.
// Negatives share the link type and endpoint node types of the positives
// they permute and are guaranteed not to collide with any positive.
//
// Cost is linear in links.size(): links are bucketed by kind as int32
// indices, each index bucket is shuffled, and only the kept positives are
// built as LinkSamples. The collision set holds only the positives that join
// a kept source to a kept destination (the only pairs a negative can hit).
// The transient is 4 bytes per link plus 1 byte per graph node.
//
// The returned samples and the rng's stream position afterwards are a
// contract, pinned bit for bit by the reference sampler and digest in
// tests/test_links.cpp. Dataset-cache keys and committed bench baselines
// rely on it, so an implementation change must not move either.
std::vector<LinkSample> build_link_samples(const CircuitGraph& cg,
                                           const std::vector<CouplingLink>& links, Rng& rng,
                                           const LinkSampleOptions& options = {});

// Node-level regression targets (ground capacitance per net/pin node).
struct NodeSample {
  std::int32_t node = -1;
  double cap = 0.0;  // farads
};

std::vector<NodeSample> build_node_samples(const CircuitGraph& cg,
                                           const ExtractionResult& extraction, Rng& rng,
                                           std::int64_t max_count = -1);

// SEAL-style link injection (paper §IV: "both the positive and the negative
// edges were injected into the original circuit graph"): returns a copy of
// the structural graph with the positive link samples added as typed edges
// (2/3/4), and optionally the negative samples as well (the paper's exact
// setup; negatives add degree-distribution parity at the cost of noise
// edges). The enclosing-subgraph sampler removes the direct anchor-anchor
// edge of the target pair, so injected targets never leak their own label;
// what remains is the partially-observed coupling network whose connectivity
// (common coupling neighbors and the like) is the signal SEAL learns from.
HeteroGraph build_link_graph(const CircuitGraph& cg, const std::vector<LinkSample>& samples,
                             bool include_negatives = false);

}  // namespace cgps
