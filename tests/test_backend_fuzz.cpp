// Backend fuzz sweep (scalar vs AVX2) over odd/prime shapes, including
// zero-row batches and sizes that straddle every vector-width boundary. The
// fp32 kernels may re-associate within one output element, so they are held
// to a relative tolerance.
#include "exec/backend.hpp"
#include "util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

namespace cgps {
namespace {

// Odd, prime, and width-straddling dims. 8/16 float lanes all hit
// partial-tail paths somewhere in this set.
const std::vector<std::int64_t> kDims = {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 32, 33, 64, 67};
const std::vector<std::int64_t> kBatchRows = {0, 1, 2, 3, 5, 7, 13, 17, 31, 33};

std::vector<float> random_floats(std::size_t n, Rng& rng, double lo = -2.0, double hi = 2.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

void expect_rel_close(const std::vector<float>& a, const std::vector<float>& b, float rel,
                      const char* what, std::int64_t m, std::int64_t k, std::int64_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = rel * (1.0f + std::max(std::fabs(a[i]), std::fabs(b[i])));
    ASSERT_NEAR(a[i], b[i], tol)
        << what << " m=" << m << " k=" << k << " n=" << n << " at " << i;
  }
}

TEST(BackendFuzz, Fp32KernelsAgreeWithinTolerance) {
  const exec::KernelBackend* avx2 = exec::avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 not available";
  const exec::KernelBackend& scalar = exec::scalar_backend();
  Rng rng(2024);
  for (const std::int64_t m : kBatchRows) {
    for (const std::int64_t k : kDims) {
      for (const std::int64_t n : kDims) {
        // Keep the sweep cheap: sample the cube rather than exhausting it,
        // but always keep the zero-row and size-1 edges.
        if (m > 1 && k > 1 && n > 1 && rng.uniform() > 0.25) continue;
        const auto a = random_floats(static_cast<std::size_t>(m * k), rng);
        const auto b = random_floats(static_cast<std::size_t>(k * n), rng);
        const auto bias = random_floats(static_cast<std::size_t>(n), rng);
        std::vector<float> o_scalar(static_cast<std::size_t>(m * n));
        std::vector<float> o_avx2(static_cast<std::size_t>(m * n));

        scalar.matmul_fwd(a.data(), b.data(), o_scalar.data(), m, k, n);
        avx2->matmul_fwd(a.data(), b.data(), o_avx2.data(), m, k, n);
        expect_rel_close(o_scalar, o_avx2, 1e-5f, "matmul_fwd", m, k, n);

        scalar.linear_fwd(a.data(), b.data(), bias.data(), o_scalar.data(), m, k, n);
        avx2->linear_fwd(a.data(), b.data(), bias.data(), o_avx2.data(), m, k, n);
        expect_rel_close(o_scalar, o_avx2, 1e-5f, "linear_fwd", m, k, n);

        scalar.linear_relu_fwd(a.data(), b.data(), bias.data(), o_scalar.data(), m, k, n);
        avx2->linear_relu_fwd(a.data(), b.data(), bias.data(), o_avx2.data(), m, k, n);
        expect_rel_close(o_scalar, o_avx2, 1e-5f, "linear_relu_fwd", m, k, n);
      }
    }
  }
}

}  // namespace
}  // namespace cgps
