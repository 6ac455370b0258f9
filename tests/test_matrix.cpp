// Dense linalg: the cache-blocked product must match a naive triple loop to
// within FMA-contraction noise, expm must be unaffected by the
// scratch-buffer reuse, norm2_est must track the exact spectral norm from
// eigh on random Hermitians, and the small helpers must hold up.
#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "linalg/expm.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::mt19937& rng) {
  std::normal_distribution<double> g;
  Matrix m(r, c);
  for (auto& x : m.flat()) x = cplx(g(rng), g(rng));
  return m;
}

/// Reference product: naive ijk triple loop, accumulating in the same
/// ascending-k order as the blocked kernel. The sums are mathematically
/// identical; the only admissible deviation is FMA contraction noise from
/// the optimizer (a few ulp), hence the 1e-12 bound below instead of 0.
Matrix naive_mul(const Matrix& a, const Matrix& b) {
  Matrix r(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      cplx acc = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      r(i, j) = acc;
    }
  return r;
}

}  // namespace

int main() {
  std::mt19937 rng(12345);

  // Blocked multiply == naive multiply, exactly, across panel boundaries
  // (sizes straddling the 64-wide k-panel) and non-square shapes.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{33}, std::size_t{64}, std::size_t{65},
                        std::size_t{129}, std::size_t{200}}) {
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    CHECK_NEAR((a * b).max_abs_diff(naive_mul(a, b)), 0.0, 1e-12);
  }
  {
    const Matrix a = random_matrix(70, 130, rng);
    const Matrix b = random_matrix(130, 5, rng);
    CHECK_NEAR((a * b).max_abs_diff(naive_mul(a, b)), 0.0, 1e-12);
  }

  // mul_into reuses the output buffer (including a shape change) and keeps
  // producing the same result.
  {
    const Matrix a = random_matrix(65, 65, rng);
    const Matrix b = random_matrix(65, 65, rng);
    Matrix out = random_matrix(3, 4, rng);  // wrong shape: must be resized
    Matrix::mul_into(out, a, b);
    CHECK_NEAR(out.max_abs_diff(naive_mul(a, b)), 0.0, 1e-12);
    Matrix::mul_into(out, a, b);  // reuse path: same shape, no realloc
    CHECK_NEAR(out.max_abs_diff(naive_mul(a, b)), 0.0, 1e-12);
  }

  // add_scaled == operator+ with a scalar multiple.
  {
    const Matrix a = random_matrix(20, 20, rng);
    const Matrix b = random_matrix(20, 20, rng);
    Matrix lhs = a;
    lhs.add_scaled(b, cplx(0.5, -1.5));
    CHECK_NEAR(lhs.max_abs_diff(a + b * cplx(0.5, -1.5)), 0.0, 1e-14);
  }

  // expm: agrees with the exact Hermitian eigendecomposition path; the
  // scratch-buffer rewrite must not change the numerics.
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                        std::size_t{16}}) {
    const Matrix h = Matrix::random_hermitian(n, rng);
    const Matrix via_eig = expm_hermitian(h, 0.7);
    const Matrix via_taylor = expm(h * cplx(0.0, 0.7));
    CHECK_NEAR(via_eig.max_abs_diff(via_taylor), 0.0, 1e-10);
    CHECK(via_taylor.is_unitary(1e-9));
  }
  {
    // Known closed form: expm([[0, t], [-t, 0]]) is a rotation by t.
    const double t = 0.3;
    const Matrix r = expm(Matrix{{0, t}, {-t, 0}});
    CHECK_NEAR(r(0, 0) - cplx(std::cos(t)), 0.0, 1e-12);
    CHECK_NEAR(r(0, 1) - cplx(std::sin(t)), 0.0, 1e-12);
    // Scaling-and-squaring path: a norm well above the 0.5 threshold.
    const Matrix big = expm(Matrix{{0, 8.0}, {-8.0, 0}});
    CHECK_NEAR(big(0, 0) - cplx(std::cos(8.0)), 0.0, 1e-9);
  }

  // eigh reconstructs its input.
  {
    const std::size_t n = 12;
    const Matrix h = Matrix::random_hermitian(n, rng);
    const EigenSystem es = eigh(h);
    Matrix recon(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        cplx acc = 0;
        for (std::size_t k = 0; k < n; ++k)
          acc += es.eigenvectors(i, k) * es.eigenvalues[k] *
                 std::conj(es.eigenvectors(j, k));
        recon(i, j) = acc;
      }
    CHECK_NEAR(recon.max_abs_diff(h), 0.0, 1e-9);
    for (std::size_t k = 0; k + 1 < n; ++k)
      CHECK(es.eigenvalues[k] <= es.eigenvalues[k + 1]);
  }

  // norm2_est vs the exact spectral norm max|lambda| from eigh on random
  // Hermitians: power iteration on A^dagger A converges from below, so the
  // estimate must sit in [0.99 * sigma_max, sigma_max * (1 + 1e-12)] at a
  // generous iteration count, and the few-iteration default stays a sane
  // same-order estimate (it feeds step-size heuristics, not proofs).
  for (std::size_t n : {std::size_t{4}, std::size_t{16}, std::size_t{48}}) {
    const Matrix h = Matrix::random_hermitian(n, rng);
    const EigenSystem es = eigh(h);
    double sigma = 0.0;
    for (double e : es.eigenvalues) sigma = std::max(sigma, std::abs(e));
    const double est = h.norm2_est(200);
    CHECK(est <= sigma * (1.0 + 1e-12));
    CHECK(est >= 0.99 * sigma);
    const double quick = h.norm2_est();
    CHECK(quick <= sigma * (1.0 + 1e-12));
    CHECK(quick >= 0.5 * sigma);
  }

  // Small helpers.
  {
    const Matrix u = Matrix::random_unitary(8, rng);
    CHECK(u.is_unitary(1e-10));
    const Matrix a = random_matrix(4, 4, rng);
    CHECK_NEAR(a.dagger().dagger().max_abs_diff(a), 0.0, 0.0);
    CHECK_NEAR(std::abs(a.trace() - (a(0, 0) + a(1, 1) + a(2, 2) + a(3, 3))),
               0.0, 1e-14);
    const Matrix k = Matrix::identity(2).kron(a);
    CHECK_EQ(k.rows(), std::size_t{8});
    CHECK_NEAR(k.block(0, 0, 4, 4).max_abs_diff(a), 0.0, 0.0);
  }

  return gecos::test::finish("test_matrix");
}
