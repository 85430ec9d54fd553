// Program recorder: walks a CircuitGps configuration once and emits the flat
// Plan IR mirroring CircuitGps::forward statement-for-statement (DESIGN.md
// §10). The recorded program is shape-symbolic — one program per (config,
// training flag, loss kind) serves every batch.
#pragma once

#include "exec/ir.hpp"
#include "gps/model.hpp"

namespace cgps::exec {

// Record the forward program of `model`, ending in `loss` (LossKind::kNone
// records an inference program whose last node is Program::output). The
// NodeDefs share the model's parameter tensors, so executing the compiled
// plan accumulates gradients straight into the model.
Program build_program(const CircuitGps& model, bool training, LossKind loss);

}  // namespace cgps::exec
