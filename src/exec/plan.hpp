// Plan compilation: forward/backward schedules and liveness intervals over a
// recorded Program (DESIGN.md §10).
#pragma once

#include "exec/ir.hpp"

#include <vector>

namespace cgps::exec {

// Liveness interval in global step indices: forward step i is index i,
// backward step j is index fwd.size() + j. last < def means "never read"
// (dead value — still materialized).
struct Life {
  int def = -1;
  int last = -1;
};

struct Plan {
  Program prog;
  // One step per non-source node, named by its node id: the forward in
  // recording order, the backward in eager closure firing order.
  std::vector<int> fwd;
  std::vector<int> bwd;

  // node id -> global index of the step that fires its backward, or -1.
  std::vector<int> node_bwd_step;
  // node id -> global index of the step that defines its value, or -1 for
  // params/inputs (whose storage lives outside the arena).
  std::vector<int> node_def_step;

  std::vector<Life> val;   // arena value intervals (params/inputs: def == -1)
  std::vector<Life> grad;  // arena grad intervals (params: def == -1, grads
                           // accumulate into the model tensors)
  std::vector<Life> aux;   // saved-for-backward buffers (BN xhat, masks, mega saves)

  // Per backward step: node grads to memset before executing it (the planned
  // equivalent of eager's lazy ensure_grad zeroing; all writes are +=).
  std::vector<std::vector<int>> zero_grads;

  int total_steps() const { return static_cast<int>(fwd.size() + bwd.size()); }
};

// Compile a recorded program: derive the backward schedule with the exact
// eager tape DFS and compute liveness.
Plan compile(Program prog);

}  // namespace cgps::exec
