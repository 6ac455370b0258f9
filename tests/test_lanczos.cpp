// Lanczos eigensolver suite: k lowest eigenpairs against dense eigh of each
// particle-number block of Hubbard lattices up to n = 10, Ritz-vector
// residuals and orthonormality, operator-interface genericity (ScbSum /
// PauliSum), restart and deflation paths on exact diagonal operators, and
// the zero-allocation-after-warm-up pin via the operator-new probe.
#include "alloc_probe.hpp"  // first: replaces global operator new
// clang-format off
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <utility>
#include <vector>
// clang-format on

#include "diag_op.hpp"
#include "fermion/hubbard.hpp"
#include "linalg/blas1.hpp"
#include "linalg/expm.hpp"
#include "ops/scb_sum.hpp"
#include "solver/lanczos.hpp"
#include "test_util.hpp"

using namespace gecos;

namespace {

/// Distinct eigenvalues of a dense spectrum (single-vector Krylov reports
/// one Ritz pair per degenerate multiplet, so comparisons go level-by-level
/// against the deduplicated spectrum).
std::vector<double> distinct_levels(const std::vector<double>& w,
                                    double tol = 1e-8) {
  std::vector<double> out;
  for (double v : w)
    if (out.empty() || v - out.back() > tol) out.push_back(v);
  return out;
}

/// Dense spectrum of a particle-conserving Hubbard H, ascending, from one
/// eigh per (N_up, N_dn) block of its matrix (N for spinless lattices).
/// First checks that every entry coupling two different blocks is exactly
/// zero, so the block spectra together are the whole spectrum.
std::vector<double> block_spectrum(const HubbardParams& p, const Matrix& m) {
  const std::uint64_t up = hubbard_species_mask(p, 0);
  const std::uint64_t dn = p.spinful ? hubbard_species_mask(p, 1) : 0;
  const std::size_t dim = m.rows();
  const auto block = [&](std::size_t i) {
    return std::pair(std::popcount(i & up), std::popcount(i & dn));
  };
  std::map<std::pair<int, int>, std::vector<std::size_t>> states;
  for (std::size_t i = 0; i < dim; ++i) states[block(i)].push_back(i);
  bool separated = true;
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j)
      if (block(i) != block(j) && m(i, j) != cplx(0.0)) separated = false;
  CHECK(separated);
  std::vector<double> w;
  for (const auto& [key, idx] : states) {
    Matrix b(idx.size(), idx.size());
    for (std::size_t r = 0; r < idx.size(); ++r)
      for (std::size_t c = 0; c < idx.size(); ++c) b(r, c) = m(idx[r], idx[c]);
    const EigenSystem e = eigh(b);
    w.insert(w.end(), e.eigenvalues.begin(), e.eigenvalues.end());
  }
  std::sort(w.begin(), w.end());
  return w;
}

}  // namespace

int main() {
  // -- Hubbard chains and lattices up to n = 10 vs dense eigh ---------------
  struct Case {
    HubbardParams p;
    const char* name;
  };
  std::vector<Case> cases;
  {
    HubbardParams a;  // 1D open chain
    a.lx = 6;
    a.u = 2.0;
    a.mu = 0.3;
    cases.push_back({a, "chain6_open"});
    HubbardParams b;  // 1D periodic ring, n = 8
    b.lx = 8;
    b.u = 2.0;
    b.mu = 0.3;
    b.periodic_x = true;
    cases.push_back({b, "ring8"});
    HubbardParams c;  // 2D spinful 2x2, n = 8
    c.lx = 2;
    c.ly = 2;
    c.u = 4.0;
    c.mu = 0.5;
    c.spinful = true;
    cases.push_back({c, "spinful2x2"});
    HubbardParams d;  // 1D spinful chain, n = 10
    d.lx = 5;
    d.u = 3.0;
    d.mu = 0.2;
    d.spinful = true;
    cases.push_back({d, "spinful5"});
  }

  for (const Case& c : cases) {
    const ScbSum h = hubbard_scb(c.p);
    const std::size_t n = h.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<double> levels =
        distinct_levels(block_spectrum(c.p, h.to_matrix()));

    LanczosOptions lo;
    lo.k = 3;
    lo.tol = 1e-11;
    Lanczos solver(h, lo);
    const LanczosResult& r = solver.solve();
    CHECK(r.converged);
    std::printf("%-12s n=%zu E0=%.12f matvecs=%zu restarts=%zu\n", c.name, n,
                r.eigenvalues[0], r.matvecs, r.restarts);
    for (std::size_t i = 0; i < lo.k; ++i)
      CHECK_NEAR(r.eigenvalues[i], levels[i], 1e-10);

    // Ritz pairs: true residual ||H y - theta y||, unit norm, mutual
    // orthogonality.
    std::vector<cplx> hy(dim);
    for (std::size_t i = 0; i < lo.k; ++i) {
      const std::span<const cplx> y = solver.ritz_vector(i);
      CHECK_NEAR(vec_norm(y), 1.0, 1e-10);
      h.apply(y, hy);
      vec_axpy(hy, cplx(-r.eigenvalues[i]), y);
      CHECK_NEAR(vec_norm(hy), 0.0, 1e-9);
      for (std::size_t l = 0; l < i; ++l)
        CHECK_NEAR(std::abs(vec_dot(solver.ritz_vector(l), y)), 0.0, 1e-9);
    }
  }

  // -- adversarial spectrum: a wide PSD diagonal operator whose slow
  // convergence takes ~90 thick restarts, most of them carrying locked
  // pairs with tiny border couplings into the arrowhead reduction. True
  // residuals are checked, not the solver's own estimates ----------------
  {
    const std::size_t nn = 1024;
    std::vector<double> w(nn);
    for (std::size_t i = 0; i < nn; ++i)
      w[i] = static_cast<double>(i * i) / 100.0;
    const test::DiagonalOp d(std::move(w));
    LanczosOptions lo;
    lo.k = 4;
    lo.tol = 1e-10;
    lo.max_subspace = 60;
    Lanczos s(d, lo);
    const LanczosResult& r = s.solve();
    CHECK(r.converged);
    std::printf("diag1024: matvecs=%zu restarts=%zu\n", r.matvecs,
                r.restarts);
    std::vector<cplx> hy(nn);
    for (std::size_t i = 0; i < lo.k; ++i) {
      CHECK_NEAR(r.eigenvalues[i], static_cast<double>(i * i) / 100.0, 1e-9);
      const std::span<const cplx> y = s.ritz_vector(i);
      d.apply(y, hy);
      vec_axpy(hy, cplx(-r.eigenvalues[i]), y);
      CHECK_NEAR(vec_norm(hy), 0.0, 1e-8);
    }
  }

  // -- interface genericity: the same spectrum through the PauliSum backend --
  {
    HubbardParams p;
    p.lx = 4;
    p.u = 2.0;
    p.mu = 0.3;
    const ScbSum h = hubbard_scb(p);
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-11;
    const double e_scb = Lanczos(h, lo).solve().eigenvalues[0];

    const PauliSum hp = h.to_pauli();
    CHECK_NEAR(Lanczos(hp, lo).solve().eigenvalues[0], e_scb, 1e-10);
  }

  // -- start-vector overload: beginning at the ground state converges on
  // the spot ---------------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 6;
    p.u = 2.0;
    const ScbSum h = hubbard_scb(p);
    LanczosOptions lo;
    lo.k = 1;
    lo.tol = 1e-10;
    Lanczos warm(h, lo);
    warm.solve();
    Lanczos cold(h, lo);
    const LanczosResult& r = cold.solve(warm.ritz_vector(0));
    CHECK(r.converged);
    CHECK(r.iterations <= 3);
    CHECK_NEAR(r.eigenvalues[0], warm.result().eigenvalues[0], 1e-10);
  }

  // -- breakdown/deflation: a basis-state start on a diagonal operator is
  // an exact eigenvector, so the first extension breaks down and k = 2
  // forces the random-deflation path ----------------------------------------
  {
    std::vector<double> w(16);
    for (std::size_t i = 0; i < 16; ++i) w[i] = static_cast<double>(i);
    const test::DiagonalOp diag(std::move(w));
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    Lanczos solver(diag, lo);
    std::vector<cplx> e0(16, cplx(0.0));
    e0[0] = cplx(1.0);
    const LanczosResult& r = solver.solve(e0);
    CHECK(r.converged);
    CHECK_NEAR(r.eigenvalues[0], 0.0, 1e-9);
    CHECK_NEAR(r.eigenvalues[1], 1.0, 1e-9);
  }

  // -- error paths ----------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 4;
    const ScbSum h = hubbard_scb(p);
    bool threw = false;
    try {
      LanczosOptions lo;
      lo.k = 0;
      Lanczos bad(h, lo);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      LanczosOptions lo;
      lo.k = 10;
      lo.max_subspace = 4;
      Lanczos bad(h, lo);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
      const std::vector<cplx> zero(std::size_t{1} << 4, cplx(0.0));
      LanczosOptions lo;
      Lanczos solver(h, lo);
      solver.solve(zero);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // -- allocation probe: after a warm-up solve, a full re-solve on the same
  // object performs ZERO heap allocations (basis, projection, workspace and
  // result storage are all preallocated; the operator's kernel cache is
  // warm) -----------------------------------------------------------------
  {
    HubbardParams p;
    p.lx = 5;
    p.u = 3.0;
    p.mu = 0.2;
    p.spinful = true;  // n = 10
    const ScbSum h = hubbard_scb(p);
    LanczosOptions lo;
    lo.k = 2;
    lo.tol = 1e-10;
    Lanczos solver(h, lo);
    solver.solve();  // warm-up: kernel cache, thread pool, workspaces
    const long before = gecos::test::allocations();
    const LanczosResult& r = solver.solve();
    const long delta = gecos::test::allocations() - before;
    CHECK(r.converged);
#if GECOS_ALLOC_PROBE_ACTIVE
    std::printf("alloc probe: %ld allocations during warm re-solve\n", delta);
    CHECK_EQ(delta, 0);
#else
    (void)delta;
#endif
  }

  return gecos::test::finish("test_lanczos");
}
