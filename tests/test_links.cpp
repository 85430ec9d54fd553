#include "gen/designs.hpp"
#include "graph/links.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "train/dataset.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <gtest/gtest.h>
#include <set>
#include <unordered_set>

namespace cgps {
namespace {

struct Fixture {
  Netlist netlist;
  CircuitGraph graph;
  ExtractionResult extraction;

  explicit Fixture(gen::DatasetId id = gen::DatasetId::kTimingControl) {
    netlist = flatten(gen::make_design(id));
    graph = build_circuit_graph(netlist);
    const Placement placement = place(netlist);
    extraction = extract_parasitics(netlist, placement);
  }
};

// The hash-set sampler that build_link_samples replaced, kept verbatim as the
// oracle: the flat-array rewrite must reproduce its output and leave the Rng
// at the same stream position, bit for bit.
std::uint64_t reference_pair_key(std::int32_t a, std::int32_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

std::vector<LinkSample> reference_build_link_samples(const CircuitGraph& cg,
                                                     const std::vector<CouplingLink>& links,
                                                     Rng& rng,
                                                     const LinkSampleOptions& options) {
  // Positives per type, as graph node pairs.
  std::vector<std::vector<LinkSample>> positives(3);  // index: type - 2
  std::vector<std::unordered_set<std::uint64_t>> positive_keys(3);
  for (const CouplingLink& link : links) {
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
    const std::size_t bucket = static_cast<std::size_t>(s.type) - 2;
    positives[bucket].push_back(s);
    positive_keys[bucket].insert(reference_pair_key(s.node_a, s.node_b));
    positive_keys[bucket].insert(reference_pair_key(s.node_b, s.node_a));
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
    std::int64_t total = 0;
    for (const auto& bucket : positives) total += static_cast<std::int64_t>(bucket.size());
    if (total > options.max_total_positives && total > 0)
      total_scale = static_cast<double>(options.max_total_positives) /
                    static_cast<double>(total);
  }

  std::vector<LinkSample> out;
  for (std::size_t bucket = 0; bucket < 3; ++bucket) {
    auto& pos = positives[bucket];
    rng.shuffle(pos);
    std::int64_t keep = static_cast<std::int64_t>(pos.size());
    if (per_type >= 0) keep = std::min<std::int64_t>(keep, per_type);
    keep = static_cast<std::int64_t>(static_cast<double>(keep) * total_scale);
    pos.resize(static_cast<std::size_t>(keep));
    if (pos.empty()) continue;

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
      const std::uint64_t key = reference_pair_key(a, b);
      if (positive_keys[bucket].contains(key)) continue;
      if (!negative_keys.insert(key).second) continue;
      negative_keys.insert(reference_pair_key(b, a));
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

// Field-by-field bitwise comparison (label and cap compared as bit patterns,
// so a -0.0/0.0 or NaN-payload drift would also fail).
void expect_same_samples(const std::vector<LinkSample>& want, const std::vector<LinkSample>& got,
                         const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].node_a, got[i].node_a) << where << " sample " << i;
    ASSERT_EQ(want[i].node_b, got[i].node_b) << where << " sample " << i;
    ASSERT_EQ(want[i].type, got[i].type) << where << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i].label),
              std::bit_cast<std::uint32_t>(got[i].label))
        << where << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i].cap), std::bit_cast<std::uint64_t>(got[i].cap))
        << where << " sample " << i;
  }
}

// FNV-1a over every field of every sample, in order.
std::uint64_t link_samples_digest(const std::vector<LinkSample>& samples) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const LinkSample& s : samples) {
    mix(&s.node_a, sizeof(s.node_a));
    mix(&s.node_b, sizeof(s.node_b));
    mix(&s.type, sizeof(s.type));
    mix(&s.label, sizeof(s.label));
    mix(&s.cap, sizeof(s.cap));
  }
  return hash;
}

TEST(LinkSamples, BalancedTypesMatchPaperRule) {
  Fixture f;
  Rng rng(1);
  LinkSampleOptions options;
  options.balance_types = true;
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, options);

  std::int64_t per_type_pos[3] = {0, 0, 0};
  for (const LinkSample& s : samples)
    if (s.label >= 0.5f) ++per_type_pos[s.type - 2];
  // Paper rule: every type contributes as many positives as the rarest
  // type, so all three counts are equal (and non-zero).
  EXPECT_EQ(per_type_pos[0], per_type_pos[2]);
  EXPECT_EQ(per_type_pos[1], per_type_pos[2]);
  EXPECT_GT(per_type_pos[2], 0);
}

TEST(LinkSamples, NegativesShareTypeAndNodeTypes) {
  Fixture f;
  Rng rng(2);
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, {});
  for (const LinkSample& s : samples) {
    if (s.label >= 0.5f) continue;
    const NodeType ta = f.graph.graph.node_type(s.node_a);
    const NodeType tb = f.graph.graph.node_type(s.node_b);
    switch (s.type) {
      case kLinkPinNet:
        EXPECT_EQ(ta, NodeType::kPin);
        EXPECT_EQ(tb, NodeType::kNet);
        break;
      case kLinkPinPin:
        EXPECT_EQ(ta, NodeType::kPin);
        EXPECT_EQ(tb, NodeType::kPin);
        break;
      case kLinkNetNet:
        EXPECT_EQ(ta, NodeType::kNet);
        EXPECT_EQ(tb, NodeType::kNet);
        break;
      default:
        FAIL() << "unexpected type";
    }
    EXPECT_EQ(s.cap, 0.0);
  }
}

TEST(LinkSamples, NegativesNeverCollideWithPositives) {
  Fixture f;
  Rng rng(3);
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, {});
  std::set<std::pair<std::int32_t, std::int32_t>> positives;
  for (const CouplingLink& link : f.extraction.links) {
    LinkSample s;
    switch (link.kind) {
      case CouplingKind::kPinToNet:
        positives.emplace(f.graph.pin_node(link.a), f.graph.net_node(link.b));
        break;
      case CouplingKind::kPinToPin:
        positives.emplace(f.graph.pin_node(link.a), f.graph.pin_node(link.b));
        positives.emplace(f.graph.pin_node(link.b), f.graph.pin_node(link.a));
        break;
      case CouplingKind::kNetToNet:
        positives.emplace(f.graph.net_node(link.a), f.graph.net_node(link.b));
        positives.emplace(f.graph.net_node(link.b), f.graph.net_node(link.a));
        break;
    }
  }
  for (const LinkSample& s : samples) {
    if (s.label < 0.5f) {
      EXPECT_FALSE(positives.contains({s.node_a, s.node_b}));
    }
  }
}

TEST(LinkSamples, NegativeRatioRespected) {
  Fixture f;
  Rng rng(4);
  LinkSampleOptions options;
  options.negative_ratio = 2.0;
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, options);
  std::int64_t pos = 0, neg = 0;
  for (const LinkSample& s : samples) (s.label >= 0.5f ? pos : neg)++;
  EXPECT_NEAR(static_cast<double>(neg) / pos, 2.0, 0.2);
}

TEST(LinkSamples, MaxPerTypeCaps) {
  Fixture f;
  Rng rng(5);
  LinkSampleOptions options;
  options.max_per_type = 10;
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, options);
  std::int64_t per_type_pos[3] = {0, 0, 0};
  for (const LinkSample& s : samples)
    if (s.label >= 0.5f) ++per_type_pos[s.type - 2];
  for (std::int64_t c : per_type_pos) EXPECT_LE(c, 10);
}

TEST(LinkSamples, DeterministicGivenSeed) {
  Fixture f;
  Rng rng1(6), rng2(6);
  const auto a = build_link_samples(f.graph, f.extraction.links, rng1, {});
  const auto b = build_link_samples(f.graph, f.extraction.links, rng2, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node_a, b[i].node_a);
    EXPECT_EQ(a[i].node_b, b[i].node_b);
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

TEST(LinkSamples, ProportionalTotalCapPreservesMix) {
  Fixture f;
  Rng rng1(10), rng2(10);
  LinkSampleOptions natural;
  natural.balance_types = false;
  const auto full = build_link_samples(f.graph, f.extraction.links, rng1, natural);

  LinkSampleOptions capped = natural;
  capped.max_total_positives = 600;
  const auto small = build_link_samples(f.graph, f.extraction.links, rng2, capped);

  auto type_fractions = [](const std::vector<LinkSample>& samples) {
    double count[3] = {0, 0, 0};
    double total = 0;
    for (const LinkSample& s : samples) {
      if (s.label < 0.5f) continue;
      count[s.type - 2] += 1;
      ++total;
    }
    return std::array<double, 3>{count[0] / total, count[1] / total, count[2] / total};
  };
  const auto f_full = type_fractions(full);
  const auto f_small = type_fractions(small);
  std::int64_t positives = 0;
  for (const LinkSample& s : small)
    if (s.label >= 0.5f) ++positives;
  EXPECT_LE(positives, 600);
  EXPECT_GT(positives, 500);
  for (int t = 0; t < 3; ++t) EXPECT_NEAR(f_small[t], f_full[t], 0.05) << "type " << t;
}

TEST(LinkSamples, MatchesReferenceSamplerBitForBit) {
  Fixture f;
  // The full link set, and the links without pin-net couplings: an empty
  // first bucket, which also changes the bucket balancing picks.
  std::vector<CouplingLink> without_pin_net;
  for (const CouplingLink& link : f.extraction.links)
    if (link.kind != CouplingKind::kPinToNet) without_pin_net.push_back(link);
  ASSERT_LT(without_pin_net.size(), f.extraction.links.size());
  const std::pair<std::string, const std::vector<CouplingLink>&> link_sets[] = {
      {"all", f.extraction.links}, {"without_pin_net", without_pin_net}};

  std::uint64_t seed = 100;
  for (const auto& [set_name, links] : link_sets) {
    for (const bool balance : {true, false}) {
      for (const std::int64_t max_per_type : {-1, 10, 2000}) {
        for (const std::int64_t max_total : {-1, 300}) {
          for (const double ratio : {0.0, 1.0, 3.0}) {
            LinkSampleOptions options;
            options.balance_types = balance;
            options.max_per_type = max_per_type;
            options.max_total_positives = max_total;
            options.negative_ratio = ratio;
            ++seed;
            Rng want_rng(seed), got_rng(seed);
            const auto want = reference_build_link_samples(f.graph, links, want_rng, options);
            const auto got = build_link_samples(f.graph, links, got_rng, options);
            const std::string where = set_name + " balance=" + std::to_string(balance) +
                                      " max_per_type=" + std::to_string(max_per_type) +
                                      " max_total=" + std::to_string(max_total) +
                                      " ratio=" + std::to_string(ratio);
            expect_same_samples(want, got, where);
            ASSERT_EQ(want_rng.next_u64(), got_rng.next_u64()) << where;
          }
        }
      }
    }
  }
}

TEST(LinkSamples, EmptyLinksLeaveRngUntouchedButForTheFinalShuffle) {
  Fixture f;
  Rng want_rng(11), got_rng(11);
  const auto want = reference_build_link_samples(f.graph, {}, want_rng, {});
  const auto got = build_link_samples(f.graph, {}, got_rng, {});
  EXPECT_TRUE(got.empty());
  expect_same_samples(want, got, "empty");
  EXPECT_EQ(want_rng.next_u64(), got_rng.next_u64());
}

// Pins the default dataset's targets (TIMING_CONTROL, DatasetOptions{}) to
// the digest recorded before the flat-array rewrite. Dataset-cache keys and
// committed bench baselines rely on this output not moving.
TEST(LinkSamples, DefaultDatasetDigestIsPinned) {
  const CircuitDataset ds = build_dataset(gen::DatasetId::kTimingControl);
  EXPECT_EQ(link_samples_digest(ds.link_samples), 0x3483012dc974e098ULL)
      << std::hex << link_samples_digest(ds.link_samples);
}

TEST(LinkGraph, InjectsPositivesOnlyByDefault) {
  Fixture f;
  Rng rng(8);
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, {});
  std::int64_t positives = 0, negatives = 0;
  for (const LinkSample& s : samples) (s.label >= 0.5f ? positives : negatives)++;

  const HeteroGraph pos_only = build_link_graph(f.graph, samples);
  EXPECT_EQ(pos_only.num_edges(), f.graph.graph.num_edges() + positives);

  const HeteroGraph with_neg = build_link_graph(f.graph, samples, /*include_negatives=*/true);
  EXPECT_EQ(with_neg.num_edges(), f.graph.graph.num_edges() + positives + negatives);
}

TEST(LinkGraph, InjectedEdgesCarryLinkTypes) {
  Fixture f;
  Rng rng(9);
  const auto samples = build_link_samples(f.graph, f.extraction.links, rng, {});
  const HeteroGraph g = build_link_graph(f.graph, samples);
  for (std::int64_t e = f.graph.graph.num_edges(); e < g.num_edges(); ++e) {
    EXPECT_GE(g.edge_type(e), kLinkPinNet);
    EXPECT_LE(g.edge_type(e), kLinkNetNet);
  }
}

TEST(NodeSamples, PositiveCapsAndValidNodes) {
  Fixture f;
  Rng rng(7);
  const auto samples = build_node_samples(f.graph, f.extraction, rng, 500);
  EXPECT_LE(static_cast<std::int64_t>(samples.size()), 500);
  EXPECT_GT(samples.size(), 0u);
  for (const NodeSample& s : samples) {
    EXPECT_GT(s.cap, 0.0);
    EXPECT_GE(s.node, 0);
    EXPECT_LT(s.node, f.graph.graph.num_nodes());
    const NodeType t = f.graph.graph.node_type(s.node);
    EXPECT_TRUE(t == NodeType::kNet || t == NodeType::kPin);
  }
}

}  // namespace
}  // namespace cgps
