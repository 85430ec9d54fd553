// AVX2/FMA backend. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/exec/CMakeLists.txt) so the rest of the build keeps
// its portable baseline; dispatch is a runtime CPU check (backend.cpp).
//
// Accuracy contract: vector lanes + FMA re-associate *within* one output
// element, so results differ from scalar by rounding only (planned AVX2 vs
// eager agrees to ~1e-5 relative, gradcheck-validated). The parallel
// partitioning and the element iteration order are identical to kern::, so
// results are still deterministic at every thread count. No allocation
// anywhere in this file (cgps_lint: exec-kernel-alloc).
#include "exec/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/kernels.hpp"
#include "util/parallel.hpp"

namespace cgps::exec {

namespace {

// Horizontal sum of one 8-lane accumulator (fixed reduction tree, so every
// call rounds identically).
inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// oi[0..n) += xip * wp[0..n), vectorized with FMA.
inline void axpy8(float xip, const float* wp, float* oi, std::int64_t n) {
  const __m256 xv = _mm256_set1_ps(xip);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 o = _mm256_loadu_ps(oi + j);
    _mm256_storeu_ps(oi + j, _mm256_fmadd_ps(xv, _mm256_loadu_ps(wp + j), o));
  }
  for (; j < n; ++j) oi[j] += xip * wp[j];
}

// One output row of A(m,k) B(k,n): zero, then ikj axpy with zero-skip on A —
// the kern::matmul_fwd structure with a vectorized j loop.
inline void row_fwd(const float* ai, const float* b, float* oi, std::int64_t k, std::int64_t n) {
  std::int64_t j = 0;
  const __m256 zero = _mm256_setzero_ps();
  for (; j + 8 <= n; j += 8) _mm256_storeu_ps(oi + j, zero);
  for (; j < n; ++j) oi[j] = 0.0f;
  for (std::int64_t p = 0; p < k; ++p) {
    const float aip = ai[p];
    if (aip == 0.0f) continue;
    axpy8(aip, b + p * n, oi, n);
  }
}

class Avx2Backend final : public KernelBackend {
 public:
  const char* name() const override { return "avx2"; }

  void matmul_fwd(const float* a, const float* b, float* o, std::int64_t m, std::int64_t k,
                  std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) row_fwd(a + i * k, b, o + i * n, k, n);
    });
  }

  void matmul_da(const float* dc, const float* b, float* da, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    // Same 4-row blocking as kern::matmul_da, each dot product vectorized.
    par::parallel_for(0, rows, par::grain_for(inner * cols),
                      [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* dci = dc + i * cols;
        float* dai = da + i * inner;
        std::int64_t p = 0;
        for (; p + 4 <= inner; p += 4) {
          const float* b0 = b + p * cols;
          const float* b1 = b0 + cols;
          const float* b2 = b1 + cols;
          const float* b3 = b2 + cols;
          __m256 a0 = _mm256_setzero_ps();
          __m256 a1 = _mm256_setzero_ps();
          __m256 a2 = _mm256_setzero_ps();
          __m256 a3 = _mm256_setzero_ps();
          std::int64_t j = 0;
          for (; j + 8 <= cols; j += 8) {
            const __m256 d = _mm256_loadu_ps(dci + j);
            a0 = _mm256_fmadd_ps(d, _mm256_loadu_ps(b0 + j), a0);
            a1 = _mm256_fmadd_ps(d, _mm256_loadu_ps(b1 + j), a1);
            a2 = _mm256_fmadd_ps(d, _mm256_loadu_ps(b2 + j), a2);
            a3 = _mm256_fmadd_ps(d, _mm256_loadu_ps(b3 + j), a3);
          }
          float acc0 = hsum8(a0);
          float acc1 = hsum8(a1);
          float acc2 = hsum8(a2);
          float acc3 = hsum8(a3);
          for (; j < cols; ++j) {
            const float d = dci[j];
            acc0 += d * b0[j];
            acc1 += d * b1[j];
            acc2 += d * b2[j];
            acc3 += d * b3[j];
          }
          dai[p] += acc0;
          dai[p + 1] += acc1;
          dai[p + 2] += acc2;
          dai[p + 3] += acc3;
        }
        for (; p < inner; ++p) {
          const float* bp = b + p * cols;
          __m256 av = _mm256_setzero_ps();
          std::int64_t j = 0;
          for (; j + 8 <= cols; j += 8)
            av = _mm256_fmadd_ps(_mm256_loadu_ps(dci + j), _mm256_loadu_ps(bp + j), av);
          float acc = hsum8(av);
          for (; j < cols; ++j) acc += dci[j] * bp[j];
          dai[p] += acc;
        }
      }
    });
  }

  void matmul_db(const float* dc, const float* a, float* db, std::int64_t rows,
                 std::int64_t inner, std::int64_t cols) const override {
    // Chunks own dB rows [p0, p1); i-ascending axpy with zero-skip on A,
    // exactly the kern::matmul_db structure.
    par::parallel_for(0, inner, par::grain_for(rows * cols),
                      [&](std::int64_t p0, std::int64_t p1) {
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* dci = dc + i * cols;
        const float* ai = a + i * inner;
        for (std::int64_t p = p0; p < p1; ++p) {
          const float aip = ai[p];
          if (aip == 0.0f) continue;
          axpy8(aip, dci, db + p * cols, cols);
        }
      }
    });
  }

  void linear_fwd(const float* x, const float* w, const float* bias, float* o, std::int64_t m,
                  std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* oi = o + i * n;
        row_fwd(x + i * k, w, oi, k, n);
        std::int64_t j = 0;
        for (; j + 8 <= n; j += 8)
          _mm256_storeu_ps(oi + j,
                           _mm256_add_ps(_mm256_loadu_ps(oi + j), _mm256_loadu_ps(bias + j)));
        for (; j < n; ++j) oi[j] += bias[j];
      }
    });
  }

  void linear_relu_fwd(const float* x, const float* w, const float* bias, float* o,
                       std::int64_t m, std::int64_t k, std::int64_t n) const override {
    par::parallel_for(0, m, par::grain_for(k * n), [&](std::int64_t i0, std::int64_t i1) {
      const __m256 zero = _mm256_setzero_ps();
      for (std::int64_t i = i0; i < i1; ++i) {
        float* oi = o + i * n;
        row_fwd(x + i * k, w, oi, k, n);
        std::int64_t j = 0;
        for (; j + 8 <= n; j += 8) {
          const __m256 v = _mm256_add_ps(_mm256_loadu_ps(oi + j), _mm256_loadu_ps(bias + j));
          _mm256_storeu_ps(oi + j, _mm256_max_ps(v, zero));
        }
        for (; j < n; ++j) oi[j] = kern::relu1(oi[j] + bias[j]);
      }
    });
  }

  void gate_chain_fwd(const float* e_hat, const float* lm, float* eta, float* msg,
                      std::int64_t count) const override {
    // The sigmoid is exp-bound, not SIMD-bound; the win here is the single
    // fused pass, same as scalar.
    par::parallel_for(0, count, par::grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const float s = kern::sigmoid1(e_hat[i]);
        eta[i] = s;
        msg[i] = s * lm[i];
      }
    });
  }
};

}  // namespace

const KernelBackend* avx2_backend() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const Avx2Backend backend;
  return &backend;
}

}  // namespace cgps::exec

#else  // !(__AVX2__ && __FMA__)

namespace cgps::exec {

const KernelBackend* avx2_backend() { return nullptr; }

}  // namespace cgps::exec

#endif
