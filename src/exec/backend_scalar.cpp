// Bit-exact reference backend: delegates the matmul family to the shared
// kern:: loops, so scalar results are bitwise identical to eager. No
// allocation anywhere in this file (cgps_lint: exec-kernel-alloc).
#include "exec/backend.hpp"
#include "tensor/kernels.hpp"

namespace cgps::exec {

namespace {

class ScalarBackend final : public KernelBackend {
 public:
  const char* name() const override { return "scalar"; }

  void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m, std::int64_t k,
                  std::int64_t n) const override {
    kern::matmul_fwd(a, b, o, m, k, n);
  }

  void matmul_da(const float* dc, const float* b, float* da, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    kern::matmul_da(dc, b, da, rows, inner, cols);
  }

  void matmul_db(const float* dc, const float* a, float* db, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    kern::matmul_db(dc, a, db, rows, inner, cols);
  }
};

}  // namespace

const KernelBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace cgps::exec
