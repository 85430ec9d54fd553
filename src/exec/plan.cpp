#include "exec/plan.hpp"

#include <algorithm>

namespace cgps::exec {

namespace {

bool is_source(Op op) { return op == Op::kParam || op == Op::kInput; }

// Does this op save extra state for backward (or intra-step scratch that the
// arena owns)? kBatchNorm saves mean/invstd/xhat, kDropout its mask, the mega
// ops their per-head/per-block tensors.
bool has_aux(Op op) {
  return op == Op::kDropout || op == Op::kBatchNorm || op == Op::kMultihead ||
         op == Op::kPerformer;
}

// The eager tape DFS from tensor.cpp, replayed over the IR graph: iterative
// post-order, children (inputs) descended in parent order, pushed only when
// requires_grad and not yet visited, root pre-inserted. The reversed order is
// the exact closure firing order of Tensor::backward(), which is what makes
// scalar planned gradients bit-identical to eager.
std::vector<int> tape_post_order(const Program& prog, int root) {
  struct Frame {
    int node;
    std::size_t next_child;
  };
  std::vector<int> order;
  std::vector<char> visited(prog.nodes.size(), 0);
  std::vector<Frame> stack;
  visited[static_cast<std::size_t>(root)] = 1;
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const NodeDef& node = prog.nodes[static_cast<std::size_t>(f.node)];
    if (f.next_child < node.inputs.size()) {
      const int child = node.inputs[f.next_child++];
      if (prog.nodes[static_cast<std::size_t>(child)].requires_grad &&
          visited[static_cast<std::size_t>(child)] == 0) {
        visited[static_cast<std::size_t>(child)] = 1;
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
  return order;
}

// Values whose forward result a backward step must still see (extends value
// liveness into the backward timeline). Mirrors what each eager closure
// captures/reads.
void bwd_value_reads(const Program& prog, int id, std::vector<int>& out) {
  out.clear();
  const NodeDef& d = prog.nodes[static_cast<std::size_t>(id)];
  switch (d.op) {
    case Op::kMatmul:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMulColvec:
    case Op::kBce:
    case Op::kMse:
      out.push_back(d.inputs[0]);
      out.push_back(d.inputs[1]);
      break;
    case Op::kSigmoid:
      out.push_back(id);  // y * (1 - y)
      break;
    case Op::kRelu:
    case Op::kSquare:
      out.push_back(d.inputs[0]);
      break;
    case Op::kMultihead:
    case Op::kPerformer:
      out.push_back(d.inputs[0]);  // x (weights are params, always live)
      break;
    default:
      break;  // routing / affine ops need only gradients
  }
}

}  // namespace

Plan compile(Program prog) {
  Plan plan;
  const int n = static_cast<int>(prog.nodes.size());
  const auto node = [&](int id) -> const NodeDef& {
    return prog.nodes[static_cast<std::size_t>(id)];
  };

  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id)
    for (int in : node(id).inputs) consumers[static_cast<std::size_t>(in)].push_back(id);

  // ---- forward schedule: every non-source node, in recording order ----
  for (int id = 0; id < n; ++id)
    if (!is_source(node(id).op)) plan.fwd.push_back(id);
  const int f = static_cast<int>(plan.fwd.size());

  // ---- backward schedule: eager tape DFS ----
  if (prog.loss >= 0 && node(prog.loss).requires_grad) {
    const std::vector<int> post = tape_post_order(prog, prog.loss);
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const Op op = node(*it).op;
      if (!is_source(op) && op != Op::kZeros) plan.bwd.push_back(*it);
    }
  }

  // ---- step index maps ----
  plan.node_def_step.assign(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < f; ++s)
    plan.node_def_step[static_cast<std::size_t>(plan.fwd[static_cast<std::size_t>(s)])] = s;
  plan.node_bwd_step.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t s = 0; s < plan.bwd.size(); ++s)
    plan.node_bwd_step[static_cast<std::size_t>(plan.bwd[s])] = f + static_cast<int>(s);

  // ---- liveness ----
  const int total = plan.total_steps();
  plan.val.assign(static_cast<std::size_t>(n), Life{});
  plan.grad.assign(static_cast<std::size_t>(n), Life{});
  plan.aux.assign(static_cast<std::size_t>(n), Life{});

  for (int id = 0; id < n; ++id) {
    if (is_source(node(id).op)) continue;
    Life& v = plan.val[static_cast<std::size_t>(id)];
    v.def = plan.node_def_step[static_cast<std::size_t>(id)];
    v.last = v.def;
  }
  // Forward reads.
  for (int s = 0; s < f; ++s) {
    for (int in : node(plan.fwd[static_cast<std::size_t>(s)]).inputs) {
      if (is_source(node(in).op)) continue;
      Life& v = plan.val[static_cast<std::size_t>(in)];
      v.last = std::max(v.last, s);
    }
  }
  // Backward reads + output/loss kept alive past the end for the runner.
  std::vector<int> reads;
  for (std::size_t s = 0; s < plan.bwd.size(); ++s) {
    const int g = f + static_cast<int>(s);
    bwd_value_reads(prog, plan.bwd[s], reads);
    for (int in : reads) {
      if (is_source(node(in).op)) continue;
      Life& v = plan.val[static_cast<std::size_t>(in)];
      v.last = std::max(v.last, g);
    }
  }
  if (prog.output >= 0) plan.val[static_cast<std::size_t>(prog.output)].last = total;
  if (prog.loss >= 0) plan.val[static_cast<std::size_t>(prog.loss)].last = total;

  // Gradient intervals: first writer is the earliest-firing consumer closure
  // (the loss root's grad is seeded by the executor at the first backward
  // step); last reader is the node's own closure.
  plan.zero_grads.assign(plan.bwd.size(), {});
  for (int id = 0; id < n; ++id) {
    const NodeDef& d = node(id);
    if (!d.requires_grad || d.op == Op::kParam) continue;
    const int own = plan.node_bwd_step[static_cast<std::size_t>(id)];
    if (own < 0) continue;  // not reached by this loss
    int first = own;
    for (int c : consumers[static_cast<std::size_t>(id)]) {
      const int cs = plan.node_bwd_step[static_cast<std::size_t>(c)];
      if (cs >= 0) first = std::min(first, cs);
    }
    plan.grad[static_cast<std::size_t>(id)] = {first, own};
    plan.zero_grads[static_cast<std::size_t>(first - f)].push_back(id);
  }

  // Aux intervals: defined with the value, read by the node's own closure.
  for (int id = 0; id < n; ++id) {
    if (!has_aux(node(id).op)) continue;
    const int def = plan.node_def_step[static_cast<std::size_t>(id)];
    const int own = plan.node_bwd_step[static_cast<std::size_t>(id)];
    plan.aux[static_cast<std::size_t>(id)] = {def, std::max(def, own)};
  }

  plan.prog = std::move(prog);
  return plan;
}

}  // namespace cgps::exec
