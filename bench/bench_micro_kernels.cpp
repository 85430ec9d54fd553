// Kernel micro-benchmarks (google-benchmark): the hot operations behind
// training — matmul, GatedGCN forward, attention variants, subgraph
// sampling, and the positional encodings of Table II.
#include "common.hpp"
#include "exec/arena.hpp"
#include "exec/runner.hpp"
#include "gen/designs.hpp"
#include "gps/batch.hpp"
#include "graph/links.hpp"
#include "graph/pe.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "nn/attention.hpp"
#include "nn/gated_gcn.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "train/dataset.hpp"
#include "train/task_data.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace cgps;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(n, n, 1.0f, rng);
  Tensor b = Tensor::randn(n, n, 1.0f, rng);
  InferenceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

struct GraphFixture {
  Netlist netlist;
  CircuitGraph graph;
  std::vector<LinkSample> samples;
  Subgraph subgraph;

  GraphFixture() {
    netlist = flatten(gen::digital_clk_gen());
    graph = build_circuit_graph(netlist);
    const Placement placement = place(netlist);
    const ExtractionResult extraction = extract_parasitics(netlist, placement);
    Rng rng(2);
    samples = build_link_samples(graph, extraction.links, rng, {});
    SubgraphOptions options;
    options.max_nodes_per_anchor = 96;
    subgraph = extract_enclosing_subgraph(graph.graph, samples[0].node_a, samples[0].node_b,
                                          options);
  }
};

GraphFixture& fixture() {
  static GraphFixture f;
  return f;
}

void BM_SubgraphSampling(benchmark::State& state) {
  GraphFixture& f = fixture();
  SubgraphOptions options;
  options.hops = static_cast<std::int32_t>(state.range(0));
  options.max_nodes_per_anchor = 96;
  std::size_t i = 0;
  for (auto _ : state) {
    const LinkSample& s = f.samples[i++ % f.samples.size()];
    benchmark::DoNotOptimize(
        extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, options).num_nodes());
  }
}
BENCHMARK(BM_SubgraphSampling)->Arg(1)->Arg(2);

void BM_PeDrnl(benchmark::State& state) {
  GraphFixture& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(drnl_labels(f.subgraph).size());
}
BENCHMARK(BM_PeDrnl);

void BM_PeRwse(benchmark::State& state) {
  GraphFixture& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(rwse(f.subgraph, 8).size());
}
BENCHMARK(BM_PeRwse);

void BM_PeLapPe(benchmark::State& state) {
  GraphFixture& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(lappe(f.subgraph, 4).size());
}
BENCHMARK(BM_PeLapPe);

void BM_GatedGcnForward(benchmark::State& state) {
  GraphFixture& f = fixture();
  Rng rng(3);
  const std::int64_t dim = 48;
  nn::GatedGcn layer(dim, rng);
  layer.set_training(false);
  Tensor x = Tensor::randn(f.subgraph.num_nodes(), dim, 1.0f, rng);
  Tensor e = Tensor::randn(f.subgraph.num_directed_edges(), dim, 1.0f, rng);
  InferenceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x, e, f.subgraph.edges).x.data().data());
  }
}
BENCHMARK(BM_GatedGcnForward);

void BM_Attention(benchmark::State& state) {
  Rng rng(4);
  const std::int64_t n = 128, dim = 48;
  Tensor x = Tensor::randn(n, dim, 1.0f, rng);
  const std::vector<std::int64_t> ptr{0, n};
  InferenceGuard guard;
  if (state.range(0) == 0) {
    nn::MultiheadSelfAttention attn(dim, 4, rng);
    attn.set_training(false);
    for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ptr).data().data());
  } else {
    nn::PerformerAttention attn(dim, 4, 16, rng);
    attn.set_training(false);
    for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ptr).data().data());
  }
}
BENCHMARK(BM_Attention)->Arg(0)->Arg(1);  // 0 = softmax Transformer, 1 = Performer

// ---------------------------------------------------------------- exec ---
// Plan-executor benches (DESIGN.md §10): arena binding vs per-buffer heap
// allocation, and whole-model planned vs eager forwards and training steps.
// Keys are exported as exec.*.real_ns.

// Plan-shaped buffer set: ~200 tensors with staggered liveness.
std::vector<exec::ArenaRequest> arena_requests() {
  std::vector<exec::ArenaRequest> reqs;
  for (int i = 0; i < 200; ++i)
    reqs.push_back({256 * 48, i, i + 8});
  return reqs;
}

void BM_ExecArenaBind(benchmark::State& state) {
  exec::Arena arena;
  const std::vector<exec::ArenaRequest> reqs = arena_requests();
  arena.bind(reqs);  // warm: slab reaches steady state
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.bind(reqs).data());
  }
}
BENCHMARK(BM_ExecArenaBind);

void BM_ExecMallocBind(benchmark::State& state) {
  const std::vector<exec::ArenaRequest> reqs = arena_requests();
  for (auto _ : state) {
    // What the eager path does per batch: one zero-filled allocation per
    // tensor, freed at the end of the step.
    std::vector<std::vector<float>> buffers;
    buffers.reserve(reqs.size());
    for (const exec::ArenaRequest& r : reqs)
      buffers.emplace_back(static_cast<std::size_t>(r.floats), 0.0f);
    benchmark::DoNotOptimize(buffers.data());
  }
}
BENCHMARK(BM_ExecMallocBind);

struct ExecModelFixture {
  GpsConfig config;
  std::unique_ptr<CircuitGps> eager_model;
  std::unique_ptr<CircuitGps> planned_model;
  std::unique_ptr<exec::PlanRunner> runner;
  SubgraphBatch batch;
  std::vector<float> values;

  ExecModelFixture() {
    GraphFixture& f = fixture();
    Rng rng(13);
    std::vector<Subgraph> subgraphs;
    SubgraphOptions options;
    options.max_nodes_per_anchor = 96;
    for (std::size_t i = 0; i < 8 && i < f.samples.size(); ++i)
      subgraphs.push_back(extract_enclosing_subgraph(f.graph.graph, f.samples[i].node_a,
                                                     f.samples[i].node_b, options));
    XcNormalizer normalizer;
    normalizer.fit(f.graph.xc);
    std::vector<const Subgraph*> refs;
    for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
    BatchOptions batch_options;
    batch_options.pe = config.pe;
    batch = make_batch(refs, f.graph.xc, normalizer, batch_options);
    for (std::int64_t g = 0; g < batch.num_graphs(); ++g)
      values.push_back(static_cast<float>(g % 2));
    eager_model = std::make_unique<CircuitGps>(config);
    planned_model = std::make_unique<CircuitGps>(config);
    runner = std::make_unique<exec::PlanRunner>(*planned_model);
  }
};

ExecModelFixture& exec_fixture() {
  static ExecModelFixture f;
  return f;
}

void BM_ExecEagerForward(benchmark::State& state) {
  ExecModelFixture& f = exec_fixture();
  f.eager_model->set_training(false);
  InferenceGuard guard;
  for (auto _ : state)
    benchmark::DoNotOptimize(f.eager_model->forward(f.batch).data().data());
}
BENCHMARK(BM_ExecEagerForward);

void BM_ExecPlannedForward(benchmark::State& state) {
  ExecModelFixture& f = exec_fixture();
  f.planned_model->set_training(false);
  for (auto _ : state) {
    std::int64_t rows = 0;
    benchmark::DoNotOptimize(f.runner->predict(f.batch, &rows));
  }
}
BENCHMARK(BM_ExecPlannedForward);

void BM_ExecEagerTrainStep(benchmark::State& state) {
  ExecModelFixture& f = exec_fixture();
  CircuitGps& model = *f.eager_model;
  model.set_training(true);
  Adam optimizer(model.trainable_parameters(), 2e-3f);
  for (auto _ : state) {
    Tensor out = model.forward(f.batch);
    Tensor target = Tensor::from_vector(std::vector<float>(f.values), out.rows(), 1);
    Tensor loss = ops::bce_with_logits(out, target);
    optimizer.zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_ExecEagerTrainStep);

void BM_ExecPlannedTrainStep(benchmark::State& state) {
  ExecModelFixture& f = exec_fixture();
  CircuitGps& model = *f.planned_model;
  model.set_training(true);
  Adam optimizer(model.trainable_parameters(), 2e-3f);
  for (auto _ : state) {
    const float loss = f.runner->forward_loss(f.batch, f.values, 0.0f, /*link=*/true);
    optimizer.zero_grad();
    f.runner->backward();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_ExecPlannedTrainStep);

void BM_DatasetExtraction(benchmark::State& state) {
  const Netlist netlist = flatten(gen::timing_control());
  const Placement placement = place(netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_parasitics(netlist, placement).links.size());
  }
}
BENCHMARK(BM_DatasetExtraction);

// Target construction with the dataset defaults (balanced types, 2000 per
// type, one negative per positive): bucketing, shuffles and the negative
// loop over TIMING_CONTROL's extracted links. Informational; not in the
// gated filter.
void BM_BuildLinkSamples(benchmark::State& state) {
  const Netlist netlist = flatten(gen::timing_control());
  const CircuitGraph graph = build_circuit_graph(netlist);
  const ExtractionResult extraction = extract_parasitics(netlist, place(netlist));
  const LinkSampleOptions options = DatasetOptions{}.link_options;
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(build_link_samples(graph, extraction.links, rng, options).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(extraction.links.size()));
}
BENCHMARK(BM_BuildLinkSamples);

// TraceSpan with CIRCUITGPS_TRACE unset: a histogram lookup at construction
// plus one clock read and histogram observe at destruction. This is the
// price every instrumented section pays on an untraced run; DESIGN.md §8
// budgets it, and the `trace_span.overhead.real_ns` metric tracks it.
void BM_TraceSpanOffPath(benchmark::State& state) {
  for (auto _ : state) {
    TraceSpan span("bench.span_overhead");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanOffPath);

// ------------------------------------------------------- thread sweeps --
// Arg is the work-pool width (0 = CIRCUITGPS_THREADS / hardware default).
// Results are bit-identical across the sweep; only wall-clock changes.

class ThreadSweep {
 public:
  explicit ThreadSweep(std::int64_t threads) {
    par::set_threads(static_cast<int>(threads));
  }
  ~ThreadSweep() { par::set_threads(0); }
};

void BM_MatmulThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  const std::int64_t n = 256;
  Rng rng(1);
  Tensor a = Tensor::randn(n, n, 1.0f, rng);
  Tensor b = Tensor::randn(n, n, 1.0f, rng);
  InferenceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_GatedGcnTrainThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  GraphFixture& f = fixture();
  Rng rng(3);
  const std::int64_t dim = 48;
  nn::GatedGcn layer(dim, rng);
  layer.set_training(true);
  Tensor x = Tensor::randn(f.subgraph.num_nodes(), dim, 1.0f, rng);
  Tensor e = Tensor::randn(f.subgraph.num_directed_edges(), dim, 1.0f, rng);
  for (auto _ : state) {
    Tensor loss = ops::mean_all(layer.forward(x, e, f.subgraph.edges).x);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_GatedGcnTrainThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_AttentionThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  Rng rng(4);
  const std::int64_t n = 128, dim = 48;
  Tensor x = Tensor::randn(n, dim, 1.0f, rng);
  const std::vector<std::int64_t> ptr{0, n};
  nn::MultiheadSelfAttention attn(dim, 4, rng);
  attn.set_training(false);
  InferenceGuard guard;
  for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ptr).data().data());
}
BENCHMARK(BM_AttentionThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

const CircuitDataset& sweep_dataset() {
  static const CircuitDataset ds = [] {
    DatasetOptions options;
    options.seed = 5;
    return build_dataset(gen::DatasetId::kTimingControl, options);
  }();
  return ds;
}

void BM_SamplingThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  const CircuitDataset& ds = sweep_dataset();
  SubgraphOptions options;
  options.max_nodes_per_anchor = 96;
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(TaskData::for_links(ds, options, 64, rng).subgraphs.size());
  }
}
BENCHMARK(BM_SamplingThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_BatchAssemblyThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  const CircuitDataset& ds = sweep_dataset();
  static const TaskData task = [&] {
    SubgraphOptions options;
    options.max_nodes_per_anchor = 96;
    Rng rng(7);
    return TaskData::for_links(ds, options, 64, rng);
  }();
  XcNormalizer normalizer;
  normalizer.fit(ds.graph.xc);
  std::vector<const Subgraph*> refs;
  refs.reserve(task.subgraphs.size());
  for (const Subgraph& sg : task.subgraphs) refs.push_back(&sg);
  BatchOptions options;
  options.pe = PeKind::kRwse;  // per-graph PE cost dominates assembly
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_batch(refs, ds.graph.xc, normalizer, options).num_nodes());
  }
}
BENCHMARK(BM_BatchAssemblyThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

// Chains the normal console output while capturing each run for the
// machine-readable BENCH_micro_kernels.json report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_time;
    double cpu_time;
    std::string time_unit;
    std::int64_t iterations;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      rows_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
                       benchmark::GetTimeUnitString(run.time_unit), run.iterations});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  cgps::bench::BenchReport report("micro_kernels");
  cgps::TextTable table({"Benchmark", "Real", "CPU", "Unit", "Iterations"});
  // google-benchmark reports each run in its own time unit; normalize to
  // nanoseconds so the metric keys (<kernel>.real_ns) stay unit-stable.
  auto to_ns = [](double v, const std::string& unit) {
    if (unit == "ns") return v;
    if (unit == "us") return v * 1e3;
    if (unit == "ms") return v * 1e6;
    return v * 1e9;  // "s"
  };
  for (const CaptureReporter::Row& row : reporter.rows()) {
    table.add_row({row.name, cgps::bench::fmt(row.real_time, 1), cgps::bench::fmt(row.cpu_time, 1),
                   row.time_unit, std::to_string(row.iterations)});
    report.add_metric(cgps::bench::metric_key(row.name) + ".real_ns",
                      to_ns(row.real_time, row.time_unit),
                      cgps::MetricDirection::kLowerIsBetter);
    // Stable alias for the off-path tracing budget (DESIGN.md §8), so the
    // series survives any rename of the benchmark itself.
    if (row.name == "BM_TraceSpanOffPath")
      report.add_metric("trace_span.overhead.real_ns", to_ns(row.real_time, row.time_unit),
                        cgps::MetricDirection::kLowerIsBetter);
    // Stable aliases for the plan executor (DESIGN.md §10): arena vs heap
    // binding, and whole-model planned vs eager.
    static const std::pair<const char*, const char*> kExecAliases[] = {
        {"BM_ExecArenaBind", "exec.bind.arena.real_ns"},
        {"BM_ExecMallocBind", "exec.bind.malloc.real_ns"},
        {"BM_ExecEagerForward", "exec.forward.eager.real_ns"},
        {"BM_ExecPlannedForward", "exec.forward.planned.real_ns"},
        {"BM_ExecEagerTrainStep", "exec.train_step.eager.real_ns"},
        {"BM_ExecPlannedTrainStep", "exec.train_step.planned.real_ns"},
    };
    for (const auto& [bench, key] : kExecAliases) {
      if (row.name == bench)
        report.add_metric(key, to_ns(row.real_time, row.time_unit),
                          cgps::MetricDirection::kLowerIsBetter);
    }
  }
  report.add_table("google-benchmark runs", table);
  // Run-set size is pinned by the --benchmark_filter the caller passes: a
  // drift either way means the gate and its baseline ran different kernels.
  report.add_metric("runs", static_cast<double>(reporter.rows().size()),
                    cgps::MetricDirection::kTwoSided);
  report.write();
  return 0;
}
