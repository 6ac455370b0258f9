// Analytic-spectrum suite for the dense Hermitian eigensolver (eigh), and
// the small tridiagonal solver and thick-restart arrowhead reduction behind
// the Krylov layer pinned against it.
//
// eigh was previously exercised only through expm_hermitian; here it meets
// closed-form spectra: single Pauli terms (half/half ±1 levels) and the
// U = 0 tight-binding chain, whose many-body spectrum is exactly the set of
// subset sums of the cosine band eps_k = -2 t cos(k pi / (L + 1)) - mu.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sym_eig.hpp"
#include "ops/pauli.hpp"
#include "ops/scb_sum.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

/// Real symmetric row-major m x m values as a Hermitian Matrix.
Matrix real_matrix(const std::vector<double>& a, std::size_t m) {
  Matrix out(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = cplx(a[i * m + j]);
  return out;
}

/// Checks H V = V diag(w) and V unitary for an eigh result.
void check_eigensystem(const Matrix& h, const EigenSystem& es, double tol) {
  const std::size_t n = h.rows();
  CHECK(es.eigenvectors.is_unitary(1e-10));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      cplx hv = 0;
      for (std::size_t k = 0; k < n; ++k)
        hv += h(i, k) * es.eigenvectors(k, j);
      CHECK_NEAR(std::abs(hv - es.eigenvalues[j] * es.eigenvectors(i, j)),
                 0.0, tol);
    }
  }
}

}  // namespace

int main() {
  // -- single Pauli terms: involutions with exactly half the spectrum at -1
  // and half at +1 ----------------------------------------------------------
  {
    const std::vector<std::vector<Scb>> words = {
        {Scb::X},
        {Scb::Z, Scb::X},
        {Scb::Y, Scb::Z, Scb::X},
    };
    for (const auto& w : words) {
      const PauliString s{std::vector<Scb>(w)};
      const Matrix m = s.to_matrix();
      const EigenSystem es = eigh(m);
      const std::size_t dim = m.rows();
      for (std::size_t i = 0; i < dim; ++i) {
        const double expect = i < dim / 2 ? -1.0 : 1.0;
        CHECK_NEAR(es.eigenvalues[i], expect, 1e-12);
      }
      check_eigensystem(m, es, 1e-11);
    }
  }

  // -- tight-binding chain (hubbard_1d at U = 0): the many-body spectrum is
  // all subset sums of the single-particle cosine band ----------------------
  {
    const std::size_t L = 6;
    HubbardParams p;
    p.lx = L;
    p.t = 1.0;
    p.u = 0.0;  // free fermions: exactly solvable
    p.mu = 0.4;
    const Matrix hd = hubbard_scb(p).to_matrix();
    const EigenSystem es = eigh(hd);

    std::vector<double> eps(L);
    for (std::size_t k = 1; k <= L; ++k)
      eps[k - 1] = -2.0 * p.t *
                       std::cos(static_cast<double>(k) * M_PI /
                                (static_cast<double>(L) + 1.0)) -
                   p.mu;
    std::vector<double> expect;
    expect.reserve(std::size_t{1} << L);
    for (std::size_t mask = 0; mask < (std::size_t{1} << L); ++mask) {
      double s = 0;
      for (std::size_t k = 0; k < L; ++k)
        if (mask & (std::size_t{1} << k)) s += eps[k];
      expect.push_back(s);
    }
    std::sort(expect.begin(), expect.end());

    double worst = 0;
    for (std::size_t i = 0; i < expect.size(); ++i)
      worst = std::max(worst, std::abs(es.eigenvalues[i] - expect[i]));
    std::printf("tight-binding L=%zu: worst |eigh - subset-sum| = %.3e\n", L,
                worst);
    CHECK_NEAR(worst, 0.0, 1e-10);
    check_eigensystem(hd, es, 1e-9);
  }

  // -- tridiagonal QL vs eigh on the same matrices -------------------------
  std::mt19937 rng(17);
  std::normal_distribution<double> g;
  SymEigWorkspace ws;
  for (const std::size_t m : {1ul, 2ul, 7ul, 24ul}) {
    // Random tridiagonal: eigh_tridiag against eigh of its dense embedding,
    // plus the exp(z T) e1 helper against dense expm.
    std::vector<double> alpha(m), beta(m > 0 ? m - 1 : 0);
    for (auto& x : alpha) x = g(rng);
    for (auto& x : beta) x = g(rng);
    std::vector<double> dense(m * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) dense[i * m + i] = alpha[i];
    for (std::size_t i = 0; i + 1 < m; ++i)
      dense[i * m + i + 1] = dense[(i + 1) * m + i] = beta[i];
    const EigenSystem es = eigh(real_matrix(dense, m));
    eigh_tridiag(alpha, beta, m, ws);
    for (std::size_t i = 0; i < m; ++i)
      CHECK_NEAR(ws.d[i], es.eigenvalues[i], 1e-12);
    // Eigenvectors: T z = d z columnwise.
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < m; ++i) {
        double tv = alpha[i] * ws.z[i * m + j];
        if (i > 0) tv += beta[i - 1] * ws.z[(i - 1) * m + j];
        if (i + 1 < m) tv += beta[i] * ws.z[(i + 1) * m + j];
        CHECK_NEAR(tv, ws.d[j] * ws.z[i * m + j], 1e-11);
      }

    const cplx z(0.2, -0.7);
    std::vector<cplx> out(m);
    expm_tridiag_e1(alpha, beta, m, z, out, ws);
    const Matrix ez = expm(real_matrix(dense, m) * z);
    for (std::size_t i = 0; i < m; ++i)
      CHECK_NEAR(std::abs(out[i] - ez(i, 0)), 0.0, 1e-12);
  }

  // -- thick-restart arrowhead reduction: Q orthogonal, Q e_l = e_l, Q^T A Q
  // tridiagonal with the returned entries, spectrum of A kept. Borders
  // include exact zeros and converged-pair sizes (1e-15 .. 1e-200) next to
  // O(1) ones — the hard case a restart with locked pairs hands over ------
  {
    struct Arrow {
      std::size_t l;
      std::vector<double> border;  // empty: random O(1) borders
    };
    const std::vector<Arrow> arrows = {
        {1, {}},
        {2, {0.0, 0.0}},
        {5, {}},
        {9, {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}},
        {9, {1e-15, 3e-14, 1e-16, 2e-13, 1e-12, 0.0, 1e-9, 0.3, -0.8}},
        {9, {1e-200, -1e-190, 1e-180, 0.0, 1e-170, 1e-160, 1e-150, 1e-140,
             1e-130}},
        {12, {}},
    };
    for (const Arrow& c : arrows) {
      const std::size_t l = c.l, n = l + 1;
      std::vector<double> a(n * n, 0.0);
      for (std::size_t i = 0; i < l; ++i) {
        a[i * n + i] = static_cast<double>(i) * 0.7 - 2.0 + 0.1 * g(rng);
        const double bi = c.border.empty() ? g(rng) : c.border[i];
        a[i * n + l] = a[l * n + i] = bi;
      }
      a[l * n + l] = g(rng);
      const std::vector<double> orig = a;
      std::vector<double> al(n), be(n - 1);
      tridiagonalize(a, n, al, be);
      const std::vector<double>& q = a;

      double ortho = 0.0, offtri = 0.0, entry = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          double qq = 0.0, t = 0.0;
          for (std::size_t p = 0; p < n; ++p) {
            qq += q[p * n + i] * q[p * n + j];
            for (std::size_t r = 0; r < n; ++r)
              t += q[p * n + i] * orig[p * n + r] * q[r * n + j];
          }
          ortho = std::max(ortho, std::abs(qq - (i == j ? 1.0 : 0.0)));
          const std::size_t d = i > j ? i - j : j - i;
          if (d > 1) offtri = std::max(offtri, std::abs(t));
          const double want = d == 0 ? al[i]
                              : d == 1 ? be[std::min(i, j)]
                                       : 0.0;
          entry = std::max(entry, std::abs(t - want));
        }
      CHECK_NEAR(ortho, 0.0, 1e-13);
      CHECK_NEAR(offtri, 0.0, 1e-13);
      CHECK_NEAR(entry, 0.0, 1e-13);
      for (std::size_t i = 0; i < n; ++i)  // Q e_l = e_l, exactly
        CHECK_EQ(q[i * n + l], i == l ? 1.0 : 0.0);
      CHECK_EQ(al[l], orig[l * n + l]);

      const EigenSystem es = eigh(real_matrix(orig, n));
      eigh_tridiag(al, be, n, ws);
      for (std::size_t i = 0; i < n; ++i)
        CHECK_NEAR(ws.d[i], es.eigenvalues[i], 1e-12);
      // All-zero borders: no reflector at all, Q = I.
      if (!c.border.empty() && std::all_of(c.border.begin(), c.border.end(),
                                           [](double b) { return b == 0.0; }))
        for (std::size_t i = 0; i < n * n; ++i)
          CHECK_EQ(q[i], i % (n + 1) == 0 ? 1.0 : 0.0);
    }
  }

  return gecos::test::finish("test_eigh");
}
