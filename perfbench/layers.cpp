#include "layers.hpp"

#include "exec/runner.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "tensor/tensor.hpp"
#include "train/trainer.hpp"
#include "util/metrics.hpp"

#include <functional>

namespace cgps::perfbench {

namespace {

// Wall-clock budget of one timed probe; each probe still makes a minimum
// number of calls so its median means something.
constexpr double kSliceS = 0.4;
constexpr std::size_t kMinCalls = 5;

struct Extracted {
  const CircuitGraph* source = nullptr;
  Subgraph sg;
  float label = 0.0f;
};

using Group = std::vector<const Extracted*>;

// Full batches of `size` consecutive subgraphs that share an X_C source.
std::vector<Group> batches_of(const std::vector<Extracted>& pool, std::size_t size) {
  std::vector<Group> batches;
  std::vector<std::pair<const CircuitGraph*, Group>> open;
  for (const Extracted& e : pool) {
    auto it = std::find_if(open.begin(), open.end(),
                           [&](const auto& g) { return g.first == e.source; });
    if (it == open.end()) it = open.insert(open.end(), {e.source, {}});
    it->second.push_back(&e);
    if (it->second.size() == size) {
      batches.push_back(std::move(it->second));
      it->second.clear();
    }
  }
  return batches;
}

SubgraphBatch assemble(const Group& group, const XcNormalizer& normalizer,
                       const BatchOptions& options) {
  std::vector<const Subgraph*> refs;
  refs.reserve(group.size());
  for (const Extracted* e : group) refs.push_back(&e->sg);
  return make_batch(refs, group.front()->source->xc, normalizer, options);
}

std::vector<float> labels_of(const Group& group) {
  std::vector<float> labels;
  for (const Extracted* e : group) labels.push_back(e->label);
  return labels;
}

// Seconds per call of `fn(i)` for i = 0, 1, ... < n, after one untimed
// warm-up call, until the budget is spent (at least kMinCalls calls).
std::vector<double> time_calls(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<double> seconds;
  if (n == 0) return seconds;
  fn(0);
  const double stop = now_s() + kSliceS;
  for (std::size_t i = 0; i < n; ++i) {
    if (seconds.size() >= kMinCalls && now_s() > stop) break;
    const double t0 = now_s();
    fn(i);
    seconds.push_back(now_s() - t0);
  }
  return seconds;
}

// Median of per-call seconds, in microseconds per graph.
double us_per_graph(const std::vector<double>& seconds, std::size_t batch) {
  return median(seconds) * 1e6 / static_cast<double>(batch);
}

}  // namespace

void probe_layers(CircuitGps& model, const XcNormalizer& normalizer,
                  const GpsConfig& train_config, const std::vector<ProbeCandidate>& candidates,
                  bool train_steps, RunResult& result) {
  // graph: one timed extract_enclosing_subgraph per candidate.
  std::vector<Extracted> pool;
  std::vector<double> extract_us, nodes;
  const double extract_stop = now_s() + 2 * kSliceS;
  for (const ProbeCandidate& c : candidates) {
    if (pool.size() >= 1000 && now_s() > extract_stop) break;
    const double t0 = now_s();
    Subgraph sg = extract_enclosing_subgraph(*c.graph, c.node_a, c.node_b, c.options);
    extract_us.push_back((now_s() - t0) * 1e6);
    nodes.push_back(static_cast<double>(sg.num_nodes()));
    pool.push_back({c.source, std::move(sg), c.label});
  }
  result.add_layer("graph.extract_us.p50", quantile(extract_us, 0.50), "us");
  result.add_layer("graph.extract_us.p99", quantile(extract_us, 0.99), "us");
  result.add_layer("graph.subgraph_nodes.mean", mean(nodes), "nodes");
  result.add_layer("graph.subgraph_nodes.p99", quantile(nodes, 0.99), "nodes");

  const BatchOptions batch_options = batch_options_for(model.config());
  std::vector<Group> singles = batches_of(pool, 1);
  std::vector<Group> eights = batches_of(pool, 8);
  std::vector<Group> sixty_fours = batches_of(pool, 64);

  // gps: batch assembly and the eager forward at three batch sizes.
  const std::vector<double> assemble_s = time_calls(sixty_fours.size(), [&](std::size_t i) {
    assemble(sixty_fours[i], normalizer, batch_options);
  });
  result.add_layer("gps.assemble_us_per_graph", us_per_graph(assemble_s, 64), "us");

  model.set_training(false);
  for (const auto& [size, groups] :
       {std::pair<std::size_t, const std::vector<Group>*>{1, &singles}, {8, &eights},
        {64, &sixty_fours}}) {
    std::vector<SubgraphBatch> ready;
    for (const Group& g : *groups) ready.push_back(assemble(g, normalizer, batch_options));
    InferenceGuard guard;
    const std::vector<double> eager_s =
        time_calls(ready.size(), [&](std::size_t i) { model.forward(ready[i]); });
    result.add_layer("gps.forward_us_per_graph.b" + std::to_string(size),
                     us_per_graph(eager_s, size), "us");
    if (size == 8) continue;
    // exec: the planned executor's inference call on the same batches.
    exec::PlanRunner runner(model);
    std::int64_t rows = 0;
    const std::vector<double> planned_s =
        time_calls(ready.size(), [&](std::size_t i) { runner.predict(ready[i], &rows); });
    result.add_layer("exec.predict_us_per_graph.b" + std::to_string(size),
                     us_per_graph(planned_s, size), "us");
  }

  // exec: one planned training step (forward + loss + backward) at batch 24.
  std::vector<Group> twenty_fours = batches_of(pool, 24);
  {
    CircuitGps trainee(train_config);
    trainee.set_training(true);
    Adam optimizer(trainee.trainable_parameters(), 2e-3f);
    exec::PlanRunner runner(trainee);
    std::vector<SubgraphBatch> ready;
    for (const Group& g : twenty_fours) ready.push_back(assemble(g, normalizer, batch_options));
    const std::vector<double> step_s = time_calls(ready.size(), [&](std::size_t i) {
      optimizer.zero_grad();
      runner.forward_loss(ready[i], labels_of(twenty_fours[i]), 0.0f, /*link_task=*/true);
      runner.backward();
    });
    result.add_layer("exec.train_step_ms", median(step_s) * 1e3, "ms");
  }
  result.add_layer("exec.arena_bytes", metric_gauge("exec.arena_bytes").value(), "bytes");

  if (!train_steps) return;
  // nn/tensor: the eager training step of train/trainer.cpp, phase by phase.
  CircuitGps trainee(train_config);
  trainee.set_training(true);
  Adam optimizer(trainee.trainable_parameters(), 2e-3f);
  std::vector<double> gather_s, forward_s, backward_s, optim_s;
  const double stop = now_s() + 2 * kSliceS;
  std::int64_t samples = 0;
  for (const Group& g : twenty_fours) {
    if (gather_s.size() >= kMinCalls && now_s() > stop) break;
    double t0 = now_s();
    const SubgraphBatch batch = assemble(g, normalizer, batch_options);
    gather_s.push_back(now_s() - t0);
    t0 = now_s();
    const Tensor out = trainee.forward(batch);
    Tensor loss = ops::bce_with_logits(out, Tensor::from_vector(labels_of(g), out.rows(), 1));
    forward_s.push_back(now_s() - t0);
    t0 = now_s();
    optimizer.zero_grad();
    loss.backward();
    backward_s.push_back(now_s() - t0);
    t0 = now_s();
    optimizer.clip_grad_norm(2.0);
    optimizer.step();
    optim_s.push_back(now_s() - t0);
    samples += static_cast<std::int64_t>(g.size());
  }
  result.add_layer("train.gather_ms_per_step", median(gather_s) * 1e3, "ms");
  result.add_layer("train.forward_ms_per_step", median(forward_s) * 1e3, "ms");
  result.add_layer("train.backward_ms_per_step", median(backward_s) * 1e3, "ms");
  result.add_layer("train.optim_ms_per_step", median(optim_s) * 1e3, "ms");
  result.add_layer("train.steps", static_cast<double>(gather_s.size()), "count");
  result.add_layer("train.samples", static_cast<double>(samples), "count");
}

void add_ingest_metrics(const IngestTimes& times, RunResult& result) {
  result.add_layer("gen.make_design_s", times.make_design_s, "s");
  result.add_layer("netlist.flatten_s", times.flatten_s, "s");
  result.add_layer("graph.build_circuit_graph_s", times.circuit_graph_s, "s");
  result.add_layer("layout.place_s", times.place_s, "s");
  result.add_layer("parasitics.extract_s", times.extract_s, "s");
  result.add_layer("graph.link_samples_s", times.link_samples_s, "s");
}

}  // namespace cgps::perfbench
