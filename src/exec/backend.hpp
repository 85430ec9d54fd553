// Pluggable kernel backend for the planned executor (DESIGN.md §10).
//
// The executor routes its compute-bound inner loops — the matmul family —
// through this interface; everything memory-bound stays on the shared kern::
// reference loops. Contract every implementation must
// honour:
//   * Output-disjoint parallel partitioning identical to kern:: (chunks are
//     a pure function of problem size), so results are deterministic at any
//     thread count.
//   * The scalar backend is the bit-exact reference: its results are
//     bitwise identical to the eager ops at every thread count.
//   * SIMD backends may re-associate within one output element (FMA, vector
//     lanes) — planned-vs-eager then agrees to ~1e-5 relative — but must
//     keep the same serial accumulation *order across elements*.
//   * No allocation anywhere in a kernel body: every buffer, including
//     scratch, is carved from the plan arena by the caller
//     (tools/cgps_lint enforces this for src/exec/backend_*.cpp).
#pragma once

#include <cstdint>

namespace cgps::exec {

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;
  // Stable identifier used in bench metric keys ("exec.<name>.*") and logs.
  virtual const char* name() const = 0;

  // C(m,n) = A(m,k) B(k,n); zeroes the output itself.
  virtual void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m,
                          std::int64_t k, std::int64_t n) const = 0;
  // dA(rows,inner) += dC(rows,cols) B(inner,cols)^T.
  virtual void matmul_da(const float* dc, const float* b, float* da, std::int64_t rows,
                         std::int64_t inner, std::int64_t cols) const = 0;
  // dB(inner,cols) += A(rows,inner)^T dC(rows,cols).
  virtual void matmul_db(const float* dc, const float* a, float* db, std::int64_t rows,
                         std::int64_t inner, std::int64_t cols) const = 0;
};

// The bit-exact reference backend (always available).
const KernelBackend& scalar_backend();

// The AVX2/FMA backend, or nullptr when the build or the CPU lacks support.
const KernelBackend* avx2_backend();

// Resolve the backend for this run: CIRCUITGPS_BACKEND=scalar|avx2|auto.
// `auto` picks AVX2 when available; a forced `avx2` on an unsupported
// CPU/build warns once and falls back to scalar.
const KernelBackend& select_backend();

}  // namespace cgps::exec
