#include "graph/links.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>

namespace cgps {

namespace {

std::uint64_t pair_key(std::int32_t a, std::int32_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

// Per-type bucket of a link: types 2/3/4 map to 0/1/2.
std::size_t bucket_of(CouplingKind kind) { return static_cast<std::size_t>(kind) - 2; }

LinkSample positive_sample(const CircuitGraph& cg, const CouplingLink& link) {
  LinkSample s;
  s.type = static_cast<std::int8_t>(link.kind);
  s.label = 1.0f;
  s.cap = link.cap;
  switch (link.kind) {
    case CouplingKind::kPinToNet:
      s.node_a = cg.pin_node(link.a);
      s.node_b = cg.net_node(link.b);
      break;
    case CouplingKind::kPinToPin:
      s.node_a = cg.pin_node(link.a);
      s.node_b = cg.pin_node(link.b);
      break;
    case CouplingKind::kNetToNet:
      s.node_a = cg.net_node(link.a);
      s.node_b = cg.net_node(link.b);
      break;
  }
  return s;
}

// Roles a node plays among a bucket's kept positives.
constexpr std::uint8_t kKeptSource = 1;
constexpr std::uint8_t kKeptDest = 2;

}  // namespace

std::vector<LinkSample> build_link_samples(const CircuitGraph& cg,
                                           const std::vector<CouplingLink>& links, Rng& rng,
                                           const LinkSampleOptions& options) {
  // Positives per type, as indices into `links`.
  std::array<std::vector<std::int32_t>, 3> positives;  // index: bucket_of(kind)
  {
    std::array<std::size_t, 3> counts{};
    for (const CouplingLink& link : links) ++counts[bucket_of(link.kind)];
    for (std::size_t bucket = 0; bucket < 3; ++bucket) positives[bucket].reserve(counts[bucket]);
    for (std::size_t i = 0; i < links.size(); ++i)
      positives[bucket_of(links[i].kind)].push_back(static_cast<std::int32_t>(i));
  }

  // Class balancing (paper: |E_n2n| from each type).
  std::int64_t per_type = -1;
  if (options.balance_types) {
    // Paper rule: sample as many instances from each link type as the
    // rarest type has (|E_n2n| in their data); i.e. the smallest non-empty
    // bucket here, since our extraction's type mix can differ.
    per_type = 0;
    for (const auto& bucket : positives) {
      const auto size = static_cast<std::int64_t>(bucket.size());
      if (size > 0 && (per_type == 0 || size < per_type)) per_type = size;
    }
  }
  if (options.max_per_type >= 0) {
    per_type = per_type < 0 ? options.max_per_type : std::min(per_type, options.max_per_type);
  }

  // Proportional total cap (keeps the natural type mix).
  double total_scale = 1.0;
  if (options.max_total_positives >= 0) {
    const auto total = static_cast<std::int64_t>(links.size());
    if (total > options.max_total_positives && total > 0)
      total_scale = static_cast<double>(options.max_total_positives) /
                    static_cast<double>(total);
  }

  std::vector<std::uint8_t> role(static_cast<std::size_t>(cg.graph.num_nodes()), 0);
  std::vector<LinkSample> out;
  for (std::size_t bucket = 0; bucket < 3; ++bucket) {
    // Shuffling the indices draws exactly what shuffling the samples would:
    // Fisher-Yates draws depend only on the length.
    std::vector<std::int32_t>& order = positives[bucket];
    rng.shuffle(order);
    std::int64_t keep = static_cast<std::int64_t>(order.size());
    if (per_type >= 0) keep = std::min<std::int64_t>(keep, per_type);
    keep = static_cast<std::int64_t>(static_cast<double>(keep) * total_scale);
    if (keep == 0) continue;
    std::vector<LinkSample> pos(static_cast<std::size_t>(keep));
    for (std::size_t k = 0; k < pos.size(); ++k)
      pos[k] = positive_sample(cg, links[static_cast<std::size_t>(order[k])]);

    // A negative candidate (a, b) pairs a kept source with a kept
    // destination, so only positives joining such nodes (in either
    // orientation) can reject one; the rest of the bucket is never queried.
    for (const LinkSample& s : pos) {
      role[static_cast<std::size_t>(s.node_a)] |= kKeptSource;
      role[static_cast<std::size_t>(s.node_b)] |= kKeptDest;
    }
    std::unordered_set<std::uint64_t> positive_keys;
    for (const CouplingLink& link : links) {
      if (bucket_of(link.kind) != bucket) continue;
      const LinkSample s = positive_sample(cg, link);
      const std::uint8_t ra = role[static_cast<std::size_t>(s.node_a)];
      const std::uint8_t rb = role[static_cast<std::size_t>(s.node_b)];
      if (((ra & kKeptSource) && (rb & kKeptDest)) || ((rb & kKeptSource) && (ra & kKeptDest))) {
        positive_keys.insert(pair_key(s.node_a, s.node_b));
        positive_keys.insert(pair_key(s.node_b, s.node_a));
      }
    }
    for (const LinkSample& s : pos)
      role[static_cast<std::size_t>(s.node_a)] = role[static_cast<std::size_t>(s.node_b)] = 0;

    // Structural negatives: permute sources and destinations within the
    // same link type (same endpoint node types by construction).
    const auto want_negatives =
        static_cast<std::int64_t>(static_cast<double>(keep) * options.negative_ratio + 0.5);
    std::unordered_set<std::uint64_t> negative_keys;
    std::int64_t produced = 0;
    std::int64_t attempts = 0;
    const std::int64_t max_attempts = 50 * want_negatives + 100;
    std::vector<LinkSample> negatives;
    while (produced < want_negatives && attempts++ < max_attempts) {
      const LinkSample& src_link = pos[rng.uniform_int(pos.size())];
      const LinkSample& dst_link = pos[rng.uniform_int(pos.size())];
      const std::int32_t a = src_link.node_a;
      const std::int32_t b = dst_link.node_b;
      if (a == b) continue;
      const std::uint64_t key = pair_key(a, b);
      if (positive_keys.contains(key)) continue;
      if (!negative_keys.insert(key).second) continue;
      negative_keys.insert(pair_key(b, a));
      LinkSample neg;
      neg.node_a = a;
      neg.node_b = b;
      neg.type = pos.front().type;
      neg.label = 0.0f;
      neg.cap = 0.0;
      negatives.push_back(neg);
      ++produced;
    }
    out.insert(out.end(), pos.begin(), pos.end());
    out.insert(out.end(), negatives.begin(), negatives.end());
  }
  rng.shuffle(out);
  return out;
}

HeteroGraph build_link_graph(const CircuitGraph& cg, const std::vector<LinkSample>& samples,
                             bool include_negatives) {
  HeteroGraph g;
  const std::int64_t n = cg.graph.num_nodes();
  const std::int64_t m = cg.graph.num_edges();
  g.reserve(n, m + static_cast<std::int64_t>(samples.size()));
  for (std::int32_t v = 0; v < n; ++v) g.add_node(cg.graph.node_type(v));
  for (std::int64_t e = 0; e < m; ++e)
    g.add_edge(cg.graph.edge_a(e), cg.graph.edge_b(e), cg.graph.edge_type(e));
  for (const LinkSample& s : samples) {
    if (s.label >= 0.5f || include_negatives) g.add_edge(s.node_a, s.node_b, s.type);
  }
  g.build_adjacency();
  return g;
}

std::vector<NodeSample> build_node_samples(const CircuitGraph& cg,
                                           const ExtractionResult& extraction, Rng& rng,
                                           std::int64_t max_count) {
  std::vector<NodeSample> out;
  for (std::size_t n = 0; n < extraction.net_ground_cap.size(); ++n) {
    if (extraction.net_ground_cap[n] <= 0.0) continue;
    // Skip degenerate and power-grid nets (same rule as the extractor).
    if (cg.graph.degree(cg.net_node(static_cast<std::int32_t>(n))) == 0) continue;
    out.push_back(NodeSample{cg.net_node(static_cast<std::int32_t>(n)),
                             extraction.net_ground_cap[n]});
  }
  for (std::size_t fp = 0; fp < extraction.pin_ground_cap.size(); ++fp) {
    if (extraction.pin_ground_cap[fp] <= 0.0) continue;
    out.push_back(NodeSample{cg.pin_node(static_cast<std::int32_t>(fp)),
                             extraction.pin_ground_cap[fp]});
  }
  rng.shuffle(out);
  if (max_count >= 0 && static_cast<std::int64_t>(out.size()) > max_count)
    out.resize(static_cast<std::size_t>(max_count));
  return out;
}

}  // namespace cgps
