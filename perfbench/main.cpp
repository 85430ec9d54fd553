// cgps_perfbench: the repository benchmark's measuring program (README.md).
//
//   cgps_perfbench --workload serve_mixed|fewshot_train|screen_bulk --seed N
//                  --seconds N --trace 0|1 --serve-bin PATH --work-dir DIR
//                  [--perturb-check]
//
// Runs one workload from inputs generated from --seed, checks the outputs,
// prints a readable report, and prints one JSON object as its last line
// (end-to-end metrics; per-layer metrics too with --trace 1). run.py builds
// this program, pins the environment and turns that line into the
// benchmark's result. --perturb-check flips one checked prediction before
// it is compared, to show that the output check fails the run.
#include "common.hpp"
#include "layers.hpp"
#include "serve_load.hpp"

#include "bench/common.hpp"

#include "nn/module.hpp"
#include "train/metrics.hpp"
#include "train/task_data.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace cgps::perfbench {
namespace {

using bench::bench_gps_config;
using bench::bench_subgraph_options;

// ---- fixed benchmark settings ---------------------------------------------------

constexpr gen::DatasetId kTestDesigns[] = {gen::DatasetId::kTimingControl,
                                           gen::DatasetId::kArray128x32,
                                           gen::DatasetId::kDigitalClkGen};
constexpr gen::DatasetId kTrainDesigns[] = {gen::DatasetId::kSsram, gen::DatasetId::kUltra8t,
                                            gen::DatasetId::kSandwichRam};

// serve_mixed. The two fixed rates are absolute and were frozen from the
// max_rate_rps this program measured when the benchmark was defined (about
// 1/4 and 2/3 of it; README.md). The ladder is geometric, 6% per rung.
constexpr double kLowRateRps = 400.0;
constexpr double kHighRateRps = 1000.0;
constexpr double kLadderBaseRps = 400.0;
constexpr double kLadderStep = 1.06;
constexpr int kLadderRungs = 46;  // 400 .. ~5500 rps
constexpr double kLatencyLimitMs = 25.0;
// Capacity phase: requests in flight (a full batch queued with room to
// spare, well inside the 100 ms deadline) and its length in requests per
// second of --seconds at the rate it was sized for.
constexpr std::size_t kCapacityWindow = 112;
constexpr double kCapacityRequestsPerS = 3000.0;
// Seconds of load before anything is measured: before the first round, and
// on each later round's fresh daemon.
constexpr double kFirstWarmupS = 2.0;
constexpr double kWarmupS = 0.5;
// serve_mixed runs this many rounds, each on a fresh daemon.
constexpr int kRounds = 2;
// A run whose generator sends later than this (p99, ms) is invalid: its
// latencies would be the generator's, not the daemon's. Wake-up jitter of a
// shared virtual host alone reaches a few ms at p99.
constexpr double kLatenessBoundMs = 25.0;
// Serve probe of traced fewshot_train / screen_bulk runs.
constexpr double kProbeRateRps = 400.0;
// Output checks: how many served / screened predictions are recomputed solo.
constexpr std::size_t kServeChecks = 64;
constexpr std::size_t kSoloChecksPerPass = 500;

// fewshot_train: per-design TaskData sizes and the samples/s the schedule is
// sized with (so the schedule depends only on --seconds).
constexpr std::int64_t kPretrainLinks = 800;
constexpr std::int64_t kFinetuneEdges = 600;
constexpr std::int64_t kTestLinks = 600;
constexpr std::int64_t kTestEdges = 500;
constexpr double kNominalTrainRate = 850.0;

// screen_bulk: candidates scored per design and pass (a seeded subset of
// the extracted candidates, so one pass fits a run several times over).
constexpr std::int64_t kScreenLinks = 750;
constexpr std::int64_t kScreenEdges = 375;
constexpr std::int64_t kScreenNodes = 75;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  bool perturb = false;
  std::string serve_bin;
  std::string work_dir = ".";
};

std::string design_list(std::span<const gen::DatasetId> ids) {
  std::string out;
  for (const gen::DatasetId id : ids) {
    if (!out.empty()) out += ',';
    out += gen::dataset_name(id);
  }
  return out;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Flip the lowest mantissa bit: the smallest possible wrong answer.
float perturbed(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof v);
  bits ^= 1U;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// ---- request streams ---------------------------------------------------------------

// A request plus the ground truth its answer is scored against.
struct Drawn {
  serve::Request request;
  float label = 0.0f;   // link existence
  float target = 0.0f;  // normalized capacitance
};

// Seeded mix over the served designs: ~45% link, ~45% edge_cap, ~10%
// node_cap. Pairs come from each design's extracted coupling candidates
// (positive and negative link samples), nodes from its ground-cap samples.
std::vector<Drawn> draw_requests(const std::vector<CircuitDataset>& designs, Rng& rng,
                                 std::size_t n, std::uint64_t first_id) {
  std::vector<Drawn> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Drawn& d = out[i];
    const std::size_t which = rng.uniform_int(designs.size());
    const CircuitDataset& ds = designs[which];
    d.request.id = first_id + i;
    d.request.design = static_cast<std::uint16_t>(which);
    const double u = rng.uniform();
    if (u < 0.90) {
      const LinkSample& s = ds.link_samples[rng.uniform_int(ds.link_samples.size())];
      d.request.task = u < 0.45 ? serve::TaskKind::kLink : serve::TaskKind::kEdgeCap;
      d.request.node_a = s.node_a;
      d.request.node_b = s.node_b;
      d.label = s.label;
      d.target = normalize_cap(s.cap);
    } else {
      const NodeSample& s = ds.node_samples[rng.uniform_int(ds.node_samples.size())];
      d.request.task = serve::TaskKind::kNodeCap;
      d.request.node_a = s.node;
      d.target = normalize_cap(s.cap);
    }
  }
  return out;
}

std::vector<serve::Request> requests_of(const std::vector<Drawn>& drawn) {
  std::vector<serve::Request> out;
  out.reserve(drawn.size());
  for (const Drawn& d : drawn) out.push_back(d.request);
  return out;
}

void print_phase(const char* name, const PhaseResult& p) {
  std::printf(
      "  %-9s %7.0f rps: sent %zu, ok %lld, shed %lld, overloaded %lld, other %lld, "
      "unanswered %lld | p50 %.3f ms, p99 %.3f ms (window median %.3f) | generator "
      "lateness p99 %.3f ms, max %.3f ms%s\n",
      name, p.rate, p.outcomes.size(), static_cast<long long>(p.ok),
      static_cast<long long>(p.shed), static_cast<long long>(p.overloaded),
      static_cast<long long>(p.other), static_cast<long long>(p.unanswered), p.p50_ms,
      p.p99_ms, p.p99_window_median_ms, p.lateness_p99_ms, p.lateness_max_ms,
      p.backlog_growing ? " | backlog growing" : "");
}

bool meets_limit(const PhaseResult& p) {
  return p.failed() == 0 && p.p99_window_median_ms <= kLatencyLimitMs && !p.backlog_growing;
}

std::vector<CircuitDataset> build_designs(std::span<const gen::DatasetId> ids,
                                          std::uint64_t seed, double train_scale,
                                          IngestTimes& ingest) {
  std::vector<CircuitDataset> out;
  for (const gen::DatasetId id : ids)
    out.push_back(build_dataset_timed(id, dataset_options(seed, train_scale), ingest));
  return out;
}

std::vector<const CircuitGraph*> graphs_of(const std::vector<CircuitDataset>& designs) {
  std::vector<const CircuitGraph*> out;
  for (const CircuitDataset& ds : designs) out.push_back(&ds.graph);
  return out;
}

// Traced runs of the offline workloads still report the serve layer: a
// short open-loop phase against a daemon serving their designs.
void serve_probe(const Args& args, const std::vector<CircuitDataset>& designs,
                 std::span<const gen::DatasetId> ids, RunResult& result) {
  const std::string log = args.work_dir + "/access_probe.jsonl";
  std::filesystem::remove(log);
  Daemon daemon;
  if (!daemon.start(args.serve_bin, design_list(ids), {"CIRCUITGPS_SERVE_ACCESS_LOG=" + log})) {
    result.fail_check("serve probe: cgps_serve did not start");
    return;
  }
  Rng rng(args.seed ^ 0x9E0BEULL);
  const auto drawn = draw_requests(designs, rng, static_cast<std::size_t>(kProbeRateRps * 1.5), 1);
  const auto requests = requests_of(drawn);
  const PhaseResult phase =
      run_phase(daemon.port(), requests, unit_poisson_offsets(requests.size(), args.seed),
                kProbeRateRps);
  print_phase("probe", phase);
  const double startup = daemon.startup_s();
  if (!daemon.stop()) result.fail_check("serve probe: cgps_serve did not drain cleanly");
  add_serve_layer_metrics(phase, requests, {log}, startup, result);
}

// Candidates for the layer probes: link samples (1-hop) plus node samples
// (2-hop when `node_hops` is 2) of each dataset, interleaved by a seeded
// shuffle, extracted from `link_graph` or the structural graph.
std::vector<ProbeCandidate> probe_candidates(const std::vector<CircuitDataset>& designs,
                                             const SubgraphOptions& link_options,
                                             int node_hops, bool structural, Rng& rng) {
  std::vector<ProbeCandidate> out;
  for (const CircuitDataset& ds : designs) {
    const HeteroGraph* graph = structural ? &ds.graph.graph : &ds.link_graph;
    for (const LinkSample& s : ds.link_samples)
      out.push_back({&ds.graph, graph, s.node_a, s.node_b, link_options, s.label});
    if (node_hops > 0) {
      SubgraphOptions node_options = link_options;
      node_options.hops = node_hops;
      for (const NodeSample& s : ds.node_samples)
        out.push_back({&ds.graph, graph, s.node, -1, node_options, 0.0f});
    }
  }
  rng.shuffle(out);
  if (out.size() > 2000) out.resize(2000);
  return out;
}

// ---- serve_mixed -----------------------------------------------------------------------

void run_serve_mixed(const Args& args, RunResult& result) {
  const double S = args.seconds;
  IngestTimes ingest;
  const std::vector<CircuitDataset> designs = build_designs(kTestDesigns, args.seed, 1.0, ingest);
  const std::string served = design_list(kTestDesigns);

  Rng rng(args.seed ^ 0x5E2BEULL);
  std::uint64_t next_id = 1;
  Daemon daemon;
  auto phase_at = [&](double rate, std::size_t n, std::vector<Drawn>* keep) {
    std::vector<Drawn> drawn = draw_requests(designs, rng, n, next_id);
    next_id += n;
    const std::vector<serve::Request> requests = requests_of(drawn);
    PhaseResult p = run_phase(daemon.port(), requests,
                              unit_poisson_offsets(n, args.seed * 31 + next_id), rate);
    if (keep != nullptr) *keep = std::move(drawn);
    return p;
  };

  // A fixed-rate phase whose generator ran later than kLatenessBoundMs (a
  // host stall) is invalid: it is reported and run once more; the run fails
  // if the repeat is invalid too.
  auto measured_phase = [&](const char* name, double rate, double n, std::vector<Drawn>& keep) {
    PhaseResult p = phase_at(rate, static_cast<std::size_t>(n), &keep);
    print_phase(name, p);
    if (p.lateness_p99_ms > kLatenessBoundMs) {
      std::printf("  invalid phase: generator lateness p99 %.3f ms > %.0f ms; repeated\n",
                  p.lateness_p99_ms, kLatenessBoundMs);
      p = phase_at(rate, static_cast<std::size_t>(n), &keep);
      print_phase(name, p);
    }
    return p;
  };

  // Rounds: a fresh daemon each (its spawn -> listening time is the set-up),
  // then the low rate, the high rate and the capacity loop. Spreading the
  // measurement over several daemon processes and the whole run keeps one
  // slow stretch of a shared host, or one unlucky process, from deciding it.
  std::vector<double> startups, rss, capacities;
  std::vector<PhaseResult> low, high;
  std::vector<std::vector<Drawn>> low_drawn, high_drawn;
  std::vector<std::string> access_logs;
  double max_rate = 0.0;
  std::int64_t attempted = 0, failed = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::string> env;
    if (args.trace) {
      access_logs.push_back(args.work_dir + "/access_" + std::to_string(round) + ".jsonl");
      std::filesystem::remove(access_logs.back());
      env.push_back("CIRCUITGPS_SERVE_ACCESS_LOG=" + access_logs.back());
    }
    if (!daemon.start(args.serve_bin, served, env)) {
      result.fail_check("cgps_serve did not start");
      return;
    }
    startups.push_back(daemon.startup_s());
    // Warm-up, longer the first time: a virtual host's idle cores take
    // seconds of load before they are scheduled promptly.
    const double warmup_s = round == 0 ? kFirstWarmupS : kWarmupS;
    print_phase("warm-up",
                phase_at(kHighRateRps, static_cast<std::size_t>(kHighRateRps * warmup_s), nullptr));

    low_drawn.emplace_back();
    low.push_back(measured_phase("low", kLowRateRps, kLowRateRps * S * 0.3 / kRounds,
                                 low_drawn.back()));
    high_drawn.emplace_back();
    high.push_back(measured_phase("high", kHighRateRps, kHighRateRps * S * 0.4 / kRounds,
                                  high_drawn.back()));

    // Capacity: a closed loop keeping kCapacityWindow requests in flight, so
    // the daemon always has a full batch queued; answers per second.
    const std::vector<Drawn> drawn = draw_requests(
        designs, rng, static_cast<std::size_t>(kCapacityRequestsPerS * S * 0.2 / kRounds), next_id);
    next_id += drawn.size();
    const WindowResult w = run_window(daemon.port(), requests_of(drawn), kCapacityWindow);
    capacities.push_back(static_cast<double>(w.ok) / std::max(1e-9, w.seconds));
    std::printf("  capacity  %zu requests, %zu in flight: ok %lld, failed %lld in %.3f s = "
                "%.0f rps\n",
                drawn.size(), kCapacityWindow, static_cast<long long>(w.ok),
                static_cast<long long>(w.failed), w.seconds, capacities.back());
    attempted += static_cast<std::int64_t>(drawn.size());
    failed += w.failed;

    if (args.trace && round + 1 == kRounds) {
      // max_rate_rps, traced runs only: binary search over the fixed ladder
      // for the highest rung whose phase meets the limit: nothing failed, no
      // growing backlog, and p99 <= 25 ms as the median over three
      // 1000-request windows. Informational: on a shared host it moves by
      // more than any bound this benchmark could hold (README.md), so
      // capacity is the bounded rate.
      int lo = -1, hi = kLadderRungs;
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        const PhaseResult p =
            phase_at(kLadderBaseRps * std::pow(kLadderStep, mid), 3 * kP99Window, nullptr);
        print_phase(meets_limit(p) ? "rung ok" : "rung miss", p);
        (meets_limit(p) ? lo : hi) = mid;
      }
      if (lo >= 0) max_rate = kLadderBaseRps * std::pow(kLadderStep, lo);
    }
    rss.push_back(daemon.peak_rss_bytes());
    if (!daemon.stop()) result.fail_check("cgps_serve did not drain and exit cleanly");
  }
  const double setup_s = median(startups);
  const double capacity = median(capacities);
  std::vector<double> low_ms, high_ms;
  for (const auto& [phases, pooled] : {std::pair{&low, &low_ms}, std::pair{&high, &high_ms}}) {
    for (const PhaseResult& p : *phases) {
      pooled->insert(pooled->end(), p.latency_ms.begin(), p.latency_ms.end());
      attempted += static_cast<std::int64_t>(p.outcomes.size());
      failed += p.failed();
      if (p.lateness_p99_ms > kLatenessBoundMs)
        result.fail_check("invalid run: generator lateness p99 " +
                          std::to_string(p.lateness_p99_ms) + " ms at " +
                          std::to_string(p.rate) + " rps");
    }
  }
  const double p50_low = quantile(low_ms, 0.50);
  const double p99_high = p99_window_median(high_ms);
  std::printf("setup: cgps_serve spawn -> listening %.3f s (median of %d daemons)\n", setup_s,
              kRounds);

  // Quality of the served answers, and the solo recomputation check.
  std::vector<float> scores, labels, caps, targets;
  std::vector<std::pair<const Drawn*, float>> answered;
  for (const auto& [drawn, phases] : {std::pair{&low_drawn, &low}, std::pair{&high_drawn, &high}}) {
    for (std::size_t r = 0; r < phases->size(); ++r) {
      for (std::size_t i = 0; i < (*drawn)[r].size(); ++i) {
        const Outcome& o = (*phases)[r].outcomes[i];
        if (!o.answered || o.status != serve::Status::kOk) continue;
        const Drawn& d = (*drawn)[r][i];
        answered.emplace_back(&d, o.value);
        if (d.request.task == serve::TaskKind::kLink) {
          scores.push_back(o.value);
          labels.push_back(d.label);
        } else {
          caps.push_back(o.value);
          targets.push_back(d.target);
        }
      }
    }
  }
  CircuitGps model(demo_config());
  const XcNormalizer normalizer = demo_normalizer(graphs_of(designs));
  Rng pick(args.seed ^ 0xC4EC4ULL);
  std::size_t mismatches = 0, checked = 0;
  for (; checked < kServeChecks && !answered.empty(); ++checked) {
    const auto& [d, value] = answered[pick.uniform_int(answered.size())];
    const CircuitDataset& ds = designs[d->request.design];
    const bool link = d->request.task == serve::TaskKind::kLink;
    const std::int32_t b = d->request.task == serve::TaskKind::kNodeCap ? -1 : d->request.node_b;
    const float expect = solo_prediction(model, ds.graph.graph, ds.graph.xc, normalizer,
                                         d->request.node_a, b, SubgraphOptions{}, link);
    const float got = args.perturb && checked == 0 ? perturbed(value) : value;
    if (!same_bits(got, expect)) ++mismatches;
  }
  std::printf("output check: %zu of %zu served answers differ from solo recomputation\n",
              mismatches, checked);
  if (mismatches > 0)
    result.fail_check(std::to_string(mismatches) + " served answers differ from solo");

  result.attempted = attempted;
  result.failed = failed;
  result.add_e2e("setup_s", setup_s, "s");
  result.add_e2e("peak_rss_mb", median(rss) / 1e6, "MB");
  result.add_e2e("success_rate", result.success_rate(), "fraction");
  result.add_e2e("throughput_per_s", capacity, "1/s");
  result.add_e2e("p50_ms", p50_low, "ms");
  result.add_e2e("p99_ms", p99_high, "ms");
  result.add_e2e("link_auc", binary_metrics(scores, labels).auc, "fraction");
  result.add_e2e("cap_mae", regression_metrics(caps, targets).mae, "normalized");
  std::printf("serve_mixed: at %.0f rps p50 %.3f ms, p99 %.3f ms (%zu requests); at %.0f rps "
              "p50 %.3f ms, p99 %.3f ms (median of %zu-request windows; %zu requests); capacity "
              "%.0f rps (median of %d rounds)\n",
              kLowRateRps, p50_low, p99_window_median(low_ms), low_ms.size(), kHighRateRps,
              quantile(high_ms, 0.50), p99_high, kP99Window, high_ms.size(), capacity, kRounds);
  if (args.trace)
    std::printf("max_rate_rps %.0f (highest ladder rung with p99 <= %.0f ms)\n", max_rate,
                kLatencyLimitMs);

  if (!args.trace) return;
  // Serve layer, from the high-rate phases and the daemons' access logs.
  std::vector<serve::Request> high_requests;
  PhaseResult high_pooled;
  for (std::size_t r = 0; r < high.size(); ++r) {
    for (const Drawn& d : high_drawn[r]) high_requests.push_back(d.request);
    high_pooled.outcomes.insert(high_pooled.outcomes.end(), high[r].outcomes.begin(),
                                high[r].outcomes.end());
    high_pooled.shed += high[r].shed;
    high_pooled.overloaded += high[r].overloaded;
  }
  add_serve_layer_metrics(high_pooled, high_requests, access_logs, setup_s, result);
  add_ingest_metrics(ingest, result);
  Stopwatch task_watch;
  Rng task_rng(args.seed);
  const TaskData probe_task =
      TaskData::for_links(designs.front(), SubgraphOptions{}, 1000, task_rng);
  result.add_layer("train.task_data_s", task_watch.seconds(), "s");
  Rng probe_rng(args.seed ^ 0x960BEULL);
  probe_layers(model, normalizer, demo_config(),
               probe_candidates(designs, SubgraphOptions{}, 1, /*structural=*/true, probe_rng),
               /*train_steps=*/true, result);
}

// ---- fewshot_train --------------------------------------------------------------------

struct FewshotData {
  IngestTimes ingest;
  std::vector<CircuitDataset> train_sets;
  std::vector<CircuitDataset> test_set;  // TIMING_CONTROL
  std::vector<TaskData> pretrain, finetune;
  TaskData test_links, test_edges;
  double task_data_s = 0.0;
};

// The cold set-up: every design from scratch (never the dataset cache),
// then the TaskData of both training stages and of the zero-shot test.
void build_fewshot(std::uint64_t seed, FewshotData& d) {
  d = FewshotData{};
  d.train_sets = build_designs(kTrainDesigns, seed, 0.5, d.ingest);
  d.test_set = build_designs(std::span(kTestDesigns, 1), seed, 0.5, d.ingest);
  Stopwatch watch;
  Rng rng(seed ^ 0x7A5CULL);
  const SubgraphOptions options = bench_subgraph_options();
  for (const CircuitDataset& ds : d.train_sets) {
    d.pretrain.push_back(TaskData::for_links(ds, options, kPretrainLinks, rng));
    d.finetune.push_back(TaskData::for_edge_regression(ds, options, kFinetuneEdges, rng));
  }
  d.test_links = TaskData::for_links(d.test_set.front(), options, kTestLinks, rng);
  d.test_edges = TaskData::for_edge_regression(d.test_set.front(), options, kTestEdges, rng);
  d.task_data_s = watch.seconds();
}

std::vector<const TaskData*> ptrs(const std::vector<TaskData>& tasks) {
  std::vector<const TaskData*> out;
  for (const TaskData& t : tasks) out.push_back(&t);
  return out;
}

std::int64_t total_size(const std::vector<TaskData>& tasks) {
  std::int64_t n = 0;
  for (const TaskData& t : tasks) n += t.size();
  return n;
}

// Solo recomputation of a batched prediction of `data` (eager, one graph),
// timed; extraction included.
struct SoloCheck {
  std::vector<double> latency_ms;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
};

// The second anchor of an extracted subgraph, -1 for a node task.
std::int32_t second_anchor_node(const Subgraph& sg) {
  return sg.second_anchor == 0 ? -1 : sg.orig_nodes[static_cast<std::size_t>(sg.second_anchor)];
}

void solo_check(CircuitGps& model, const XcNormalizer& normalizer, const HeteroGraph& graph,
                const TaskData& data, const std::vector<float>& batched,
                const SubgraphOptions& options, std::size_t index, bool perturb,
                SoloCheck& check) {
  const Subgraph& sg = data.subgraphs[index];
  const double t0 = now_s();
  const float expect = solo_prediction(model, graph, data.graph->xc, normalizer, sg.orig_nodes[0],
                                       second_anchor_node(sg), options, /*link=*/false);
  check.latency_ms.push_back((now_s() - t0) * 1e3);
  const float got = perturb && check.checked == 0 ? perturbed(batched[index]) : batched[index];
  if (!same_bits(got, expect)) ++check.mismatches;
  ++check.checked;
}

std::size_t count_nonfinite(const std::vector<float>& values) {
  std::size_t n = 0;
  for (const float v : values) n += std::isfinite(v) ? 0 : 1;
  return n;
}

// Times one solo prediction of every TIMING_CONTROL test candidate.
void time_zero_shot(CircuitGps& model, const XcNormalizer& normalizer, const FewshotData& data,
                    std::vector<double>& latency_ms) {
  const HeteroGraph& graph = data.test_set.front().link_graph;
  for (const TaskData* task : {&data.test_edges, &data.test_links}) {
    for (const Subgraph& sg : task->subgraphs) {
      const double t0 = now_s();
      solo_prediction(model, graph, task->graph->xc, normalizer, sg.orig_nodes[0],
                      second_anchor_node(sg), bench_subgraph_options(), /*link=*/false);
      latency_ms.push_back((now_s() - t0) * 1e3);
    }
  }
}

void run_fewshot_train(const Args& args, RunResult& result) {
  const GpsConfig config = bench_gps_config();
  FewshotData data;
  Stopwatch setup_watch;
  build_fewshot(args.seed, data);
  const double setup_s = setup_watch.seconds();
  std::printf("setup: cold dataset build + TaskData %.3f s\n", setup_s);
  // p50_ms / p99_ms: one zero-shot prediction of a TIMING_CONTROL test
  // candidate at the bench config, sampled after set-up and after each
  // training stage so the figure spans the run (the cost of a forward does
  // not depend on the weights' values).
  std::vector<double> latency_ms;
  {
    CircuitGps fresh(config);
    time_zero_shot(fresh, fit_normalizer(ptrs(data.pretrain)), data, latency_ms);
  }

  const std::vector<const TaskData*> pre = ptrs(data.pretrain);
  const std::vector<const TaskData*> ft = ptrs(data.finetune);
  const double per_epoch =
      static_cast<double>(data.train_sets.size() * (kPretrainLinks + kFinetuneEdges));
  const int epochs = std::max(
      1, static_cast<int>(std::lround(args.seconds * 0.5 * kNominalTrainRate / per_epoch)));

  const std::string run_log = args.work_dir + "/run_log.jsonl";
  std::filesystem::remove(run_log);
  ::setenv("CIRCUITGPS_RUN_LOG", run_log.c_str(), 1);
  const XcNormalizer normalizer = fit_normalizer(pre);
  TrainOptions options = bench::bench_train_options();  // batch 24, lr 2e-3
  options.epochs = epochs;
  CircuitGps meta(config);
  const double pre_s = train_link_prediction(meta, normalizer, pre, options);
  time_zero_shot(meta, normalizer, data, latency_ms);
  CircuitGps adapted(config);
  nn::copy_state(meta, adapted);
  adapted.reset_head(902);  // fresh task head, then all parameters train
  const double ft_s = train_regression(adapted, normalizer, ft, options);
  ::unsetenv("CIRCUITGPS_RUN_LOG");
  const double samples = static_cast<double>(epochs) *
                         static_cast<double>(total_size(data.pretrain) + total_size(data.finetune));
  std::printf("training: %d + %d epochs, %.0f samples in %.3f s (pre-train %.3f s, fine-tune "
              "%.3f s)\n",
              epochs, epochs, samples, pre_s + ft_s, pre_s, ft_s);

  // Losses come from the trainer's own run log, one record per epoch.
  std::int64_t steps = 0, bad_steps = 0, logged_samples = 0;
  double t_batch = 0, t_fwd = 0, t_bwd = 0, t_opt = 0;
  const std::vector<JsonValue> epochs_logged = read_jsonl(run_log);
  for (const JsonValue& rec : epochs_logged) {
    const auto batches = static_cast<std::int64_t>(json_number(rec, "batches"));
    steps += batches;
    logged_samples += static_cast<std::int64_t>(json_number(rec, "samples"));
    const double loss = json_number(rec, "loss", std::nan(""));
    if (!std::isfinite(loss)) bad_steps += batches;
    t_batch += json_number(rec, "t_batch_s");
    t_fwd += json_number(rec, "t_fwd_s");
    t_bwd += json_number(rec, "t_bwd_s");
    t_opt += json_number(rec, "t_opt_s");
  }
  if (epochs_logged.size() != static_cast<std::size_t>(2 * epochs))
    result.fail_check("run log has " + std::to_string(epochs_logged.size()) + " epochs, want " +
                      std::to_string(2 * epochs));
  if (bad_steps > 0) result.fail_check("non-finite training loss");

  // Zero-shot on TIMING_CONTROL.
  const BinaryMetrics link = evaluate_link_prediction(meta, normalizer, data.test_links);
  const std::vector<float> edge_pred = predict_regression(adapted, normalizer, data.test_edges);
  const std::vector<float> link_pred = predict_regression(adapted, normalizer, data.test_links);
  const double mae = regression_metrics(edge_pred, data.test_edges.targets).mae;
  const std::size_t bad_pred = count_nonfinite(edge_pred) + count_nonfinite(link_pred);
  if (!std::isfinite(link.auc) || !std::isfinite(mae) || bad_pred > 0)
    result.fail_check("non-finite zero-shot prediction");
  std::printf("zero-shot TIMING_CONTROL: link AUC %.6f, cap MAE %.6f\n", link.auc, mae);

  SoloCheck check;
  const HeteroGraph& tc_graph = data.test_set.front().link_graph;
  for (std::size_t i = 0; i < edge_pred.size(); ++i)
    solo_check(adapted, normalizer, tc_graph, data.test_edges, edge_pred,
               bench_subgraph_options(), i, args.perturb, check);
  for (std::size_t i = 0; i < link_pred.size(); ++i)
    solo_check(adapted, normalizer, tc_graph, data.test_links, link_pred,
               bench_subgraph_options(), i, false, check);
  std::printf("output check: %zu of %zu batched predictions differ from solo recomputation\n",
              check.mismatches, check.checked);
  if (check.mismatches > 0)
    result.fail_check(std::to_string(check.mismatches) + " predictions differ from solo");
  latency_ms.insert(latency_ms.end(), check.latency_ms.begin(), check.latency_ms.end());

  result.attempted = steps + static_cast<std::int64_t>(edge_pred.size() + link_pred.size());
  result.failed = bad_steps + static_cast<std::int64_t>(bad_pred);
  result.add_e2e("setup_s", setup_s, "s");
  result.add_e2e("peak_rss_mb", self_peak_rss_bytes() / 1e6, "MB");
  result.add_e2e("success_rate", result.success_rate(), "fraction");
  result.add_e2e("throughput_per_s", samples / (pre_s + ft_s), "1/s");
  result.add_e2e("p50_ms", quantile(latency_ms, 0.50), "ms");
  result.add_e2e("p99_ms", quantile(latency_ms, 0.99), "ms");
  result.add_e2e("link_auc", link.auc, "fraction");
  result.add_e2e("cap_mae", mae, "normalized");

  if (!args.trace) return;
  const double per_step = steps > 0 ? 1e3 / static_cast<double>(steps) : 0.0;
  result.add_layer("train.gather_ms_per_step", t_batch * per_step, "ms");
  result.add_layer("train.forward_ms_per_step", t_fwd * per_step, "ms");
  result.add_layer("train.backward_ms_per_step", t_bwd * per_step, "ms");
  result.add_layer("train.optim_ms_per_step", t_opt * per_step, "ms");
  result.add_layer("train.steps", static_cast<double>(steps), "count");
  result.add_layer("train.samples", static_cast<double>(logged_samples), "count");
  add_ingest_metrics(data.ingest, result);
  result.add_layer("train.task_data_s", data.task_data_s, "s");
  Rng probe_rng(args.seed ^ 0x960BEULL);
  probe_layers(adapted, normalizer, config,
               probe_candidates(data.train_sets, bench_subgraph_options(), 0, false, probe_rng),
               /*train_steps=*/false, result);
  serve_probe(args, data.test_set, std::span(kTestDesigns, 1), result);
}

// ---- screen_bulk ---------------------------------------------------------------------

void run_screen_bulk(const Args& args, RunResult& result) {
  IngestTimes ingest;
  Stopwatch setup_watch;
  const std::vector<CircuitDataset> designs = build_designs(kTestDesigns, args.seed, 1.0, ingest);
  const double setup_s = setup_watch.seconds();
  std::printf("setup: candidate set of %zu designs %.3f s\n", designs.size(), setup_s);

  CircuitGps model(demo_config());
  const XcNormalizer normalizer = demo_normalizer(graphs_of(designs));
  const SubgraphOptions link_options{};  // what cgps_serve extracts with
  SubgraphOptions node_options{};
  node_options.hops = 2;

  struct Scored {
    TaskData edges, nodes;
    std::vector<float> edge_pred, node_pred;
    double auc = 0.0;
  };
  std::vector<Scored> first(designs.size());
  std::size_t bad_pred = 0;
  int passes = 0;
  // Per task (links, edge caps, node caps): candidates, extraction and
  // scoring seconds.
  std::int64_t scored[3] = {0, 0, 0};
  double extract_s[3] = {0, 0, 0};
  double score_s[3] = {0, 0, 0};
  double screen_s = 0.0;  // the passes only, not the output checks between them

  // Output check, run in a chunk after every pass so that its timings
  // (p50_ms / p99_ms: one candidate scored on its own) span the run: a
  // seeded sample of first-pass predictions recomputed solo.
  SoloCheck check;
  Rng pick(args.seed ^ 0xC4EC4ULL);
  auto check_chunk = [&] {
    for (std::size_t i = 0; i < kSoloChecksPerPass; ++i) {
      const std::size_t d = pick.uniform_int(first.size());
      const Scored& s = first[d];
      const bool node = pick.uniform() < 0.2;
      const TaskData& data = node ? s.nodes : s.edges;
      if (data.size() == 0) continue;
      solo_check(model, normalizer, designs[d].link_graph, data, node ? s.node_pred : s.edge_pred,
                 node ? node_options : link_options,
                 pick.uniform_int(static_cast<std::uint64_t>(data.size())), args.perturb, check);
    }
  };

  while (passes < 2 || screen_s < args.seconds * 0.6) {
    const double pass_start = now_s();
    for (std::size_t d = 0; d < designs.size(); ++d) {
      Rng rng(args.seed * 131 + d);
      // Extraction (TaskData) and scoring are timed apart, per task.
      const auto timed = [](double& seconds, const auto& fn) {
        const double t0 = now_s();
        auto out = fn();
        seconds += now_s() - t0;
        return out;
      };
      const TaskData links = timed(extract_s[0], [&] {
        return TaskData::for_links(designs[d], link_options, kScreenLinks, rng);
      });
      const double auc = timed(score_s[0], [&] {
        return evaluate_link_prediction(model, normalizer, links).auc;
      });
      TaskData edges = timed(extract_s[1], [&] {
        return TaskData::for_edge_regression(designs[d], link_options, kScreenEdges, rng);
      });
      std::vector<float> edge_pred =
          timed(score_s[1], [&] { return predict_regression(model, normalizer, edges); });
      TaskData nodes = timed(extract_s[2], [&] {
        return TaskData::for_nodes(designs[d], node_options, kScreenNodes, rng);
      });
      std::vector<float> node_pred =
          timed(score_s[2], [&] { return predict_regression(model, normalizer, nodes); });
      scored[0] += links.size();
      scored[1] += edges.size();
      scored[2] += nodes.size();
      bad_pred += count_nonfinite(edge_pred) + count_nonfinite(node_pred) +
                  (std::isfinite(auc) ? 0 : 1);
      if (passes == 0)
        first[d] = {std::move(edges), std::move(nodes), std::move(edge_pred),
                    std::move(node_pred), auc};
    }
    screen_s += now_s() - pass_start;
    ++passes;
    check_chunk();
  }
  const std::int64_t predictions = scored[0] + scored[1] + scored[2];
  std::printf("screening: %d passes, %lld predictions in %.3f s\n", passes,
              static_cast<long long>(predictions), screen_s);
  const char* task_names[] = {"1-hop links", "1-hop edge caps", "2-hop node caps"};
  for (int t = 0; t < 3; ++t)
    std::printf("  %-16s %lld: extraction %.0f/s, scoring %.0f/s\n", task_names[t],
                static_cast<long long>(scored[t]), scored[t] / extract_s[t],
                scored[t] / score_s[t]);

  std::vector<float> caps, targets;
  double auc_sum = 0.0;
  for (const Scored& s : first) {
    caps.insert(caps.end(), s.edge_pred.begin(), s.edge_pred.end());
    caps.insert(caps.end(), s.node_pred.begin(), s.node_pred.end());
    targets.insert(targets.end(), s.edges.targets.begin(), s.edges.targets.end());
    targets.insert(targets.end(), s.nodes.targets.begin(), s.nodes.targets.end());
    auc_sum += s.auc;
  }
  std::printf("output check: %zu of %zu screened predictions differ from solo recomputation\n",
              check.mismatches, check.checked);
  if (check.mismatches > 0)
    result.fail_check(std::to_string(check.mismatches) + " screened predictions differ from solo");
  if (bad_pred > 0) result.fail_check("non-finite screening output");

  result.attempted = predictions + static_cast<std::int64_t>(check.checked);
  result.failed = static_cast<std::int64_t>(bad_pred);
  result.add_e2e("setup_s", setup_s, "s");
  result.add_e2e("peak_rss_mb", self_peak_rss_bytes() / 1e6, "MB");
  result.add_e2e("success_rate", result.success_rate(), "fraction");
  result.add_e2e("throughput_per_s", static_cast<double>(predictions) / screen_s, "1/s");
  result.add_e2e("p50_ms", quantile(check.latency_ms, 0.50), "ms");
  result.add_e2e("p99_ms", quantile(check.latency_ms, 0.99), "ms");
  result.add_e2e("link_auc", auc_sum / static_cast<double>(first.size()), "fraction");
  result.add_e2e("cap_mae", regression_metrics(caps, targets).mae, "normalized");

  if (!args.trace) return;
  add_ingest_metrics(ingest, result);
  result.add_layer("train.task_data_s", (extract_s[0] + extract_s[1] + extract_s[2]) / passes,
                   "s");
  Rng probe_rng(args.seed ^ 0x960BEULL);
  probe_layers(model, normalizer, demo_config(),
               probe_candidates(designs, link_options, 2, false, probe_rng),
               /*train_steps=*/true, result);
  serve_probe(args, designs, kTestDesigns, result);
}

// ---- driver -------------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: cgps_perfbench --workload serve_mixed|fewshot_train|screen_bulk "
               "--seed N --seconds N --trace 0|1 --serve-bin PATH --work-dir DIR "
               "[--perturb-check]\n");
  return 2;
}

}  // namespace
}  // namespace cgps::perfbench

int main(int argc, char** argv) {
  using namespace cgps::perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-check") {
      args.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  std::signal(SIGPIPE, SIG_IGN);  // a daemon that dies mid-phase is a failed send
  RunResult result;
  if (args.workload == "serve_mixed") {
    run_serve_mixed(args, result);
  } else if (args.workload == "fewshot_train") {
    run_fewshot_train(args, result);
  } else if (args.workload == "screen_bulk") {
    run_screen_bulk(args, result);
  } else {
    return usage();
  }
  for (const std::string& f : result.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", result.to_json().c_str());
  return result.correct() ? 0 : 1;
}
