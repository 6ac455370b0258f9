// ScbSum container semantics: merging/cancellation on add, distributive
// Cayley-closed products (term count <= T1*T2, matrix agreement with dense),
// adjoint/hermiticity, Pauli expansion round-trip and matrix-free apply.
// The compiled plan (diagonal table, adjoint-pair walks, lone words) is
// pinned against to_matrix() on every word family it treats apart, against
// the per-word TermKernel sum on the n = 20 Hubbard Hamiltonian, by its
// sweep count, and bitwise across thread counts.
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"

#include <cstring>
#include <random>

#include "fermion/hubbard.hpp"
#include "ops/conversion.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

/// A word of n factors drawn uniformly from `alphabet`.
std::vector<Scb> random_word(std::size_t n, std::span<const Scb> alphabet,
                             std::mt19937& rng) {
  std::vector<Scb> word(n);
  for (Scb& o : word) o = alphabet[rng() % alphabet.size()];
  return word;
}

/// A coefficient with parts uniform in [-1, 1] (imaginary part 0 if real).
cplx random_coeff(std::mt19937& rng, bool real = false) {
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  return real ? cplx(c(rng)) : cplx(c(rng), c(rng));
}

/// The factorwise adjoint of a word (s <-> s+).
std::vector<Scb> adjoint_word(const std::vector<Scb>& w) {
  std::vector<Scb> a(w.size());
  for (std::size_t q = 0; q < w.size(); ++q) a[q] = scb_adjoint(w[q]);
  return a;
}

/// Counter c's delta over one expectation of s (metrics on for the call);
/// kernel sweeps by default.
std::uint64_t sweeps(
    const ScbSum& s, std::span<const cplx> x,
    telemetry::Counter c = telemetry::Counter::kernel_sweeps) {
  const bool was = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(true);
  const auto before = telemetry::metrics_snapshot();
  (void)s.expectation(x);
  const std::uint64_t d =
      telemetry::metrics_delta(before, telemetry::metrics_snapshot())
          .counter(c);
  telemetry::set_metrics_enabled(was);
  return d;
}

/// The grouped apply_add (complex scale, onto a nonzero y) and expectation
/// of s against its dense matrix, to 1e-12.
void check_plan(const ScbSum& s, std::mt19937& rng) {
  const std::size_t dim = s.dim();
  const Matrix m = s.to_matrix();
  const std::vector<cplx> x = random_state(dim, rng);
  const std::vector<cplx> y0 = random_state(dim, rng);
  const cplx scale(0.6, -1.3);
  std::vector<cplx> y = y0;
  s.apply_add(x, y, scale);
  const std::vector<cplx> mx = m.apply(x);
  std::vector<cplx> ref(dim);
  for (std::size_t i = 0; i < dim; ++i) ref[i] = y0[i] + scale * mx[i];
  CHECK_NEAR(vec_max_abs_diff(y, ref), 0.0, 1e-12);
  CHECK_NEAR(s.expectation(x) - vec_dot(x, mx), 0.0, 1e-12);
}


ScbSum random_sum(std::size_t n, std::size_t terms, std::mt19937& rng) {
  std::uniform_int_distribution<int> d(0, 7);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  ScbSum s(n);
  for (std::size_t t = 0; t < terms; ++t) {
    std::vector<Scb> word(n);
    for (auto& o : word) o = kAllScb[static_cast<std::size_t>(d(rng))];
    s.add(word, cplx(c(rng), c(rng)));
  }
  return s;
}

}  // namespace

int main() {
  std::mt19937 rng(7);

  // add merges like words and erases on cancellation.
  {
    ScbSum s(2);
    s.add({Scb::N, Scb::Z}, 0.5);
    s.add({Scb::N, Scb::Z}, 0.25);
    CHECK_EQ(s.size(), std::size_t{1});
    CHECK_NEAR(s.coeff_of({Scb::N, Scb::Z}) - cplx(0.75), 0.0, 1e-15);
    s.add({Scb::N, Scb::Z}, -0.75);
    CHECK(s.empty());
  }

  // add(ScbTerm) includes the h.c. part.
  {
    ScbSum s(2);
    s.add(ScbTerm(cplx(0.0, 2.0), {Scb::Sm, Scb::Z}, true));
    CHECK_EQ(s.size(), std::size_t{2});
    CHECK_NEAR(s.coeff_of({Scb::Sp, Scb::Z}) - cplx(0.0, -2.0), 0.0, 1e-15);
    CHECK(s.is_hermitian());
  }

  // Product: at most T1*T2 terms and dense-matrix agreement.
  for (int it = 0; it < 40; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    const ScbSum a = random_sum(n, 1 + rng() % 4, rng);
    const ScbSum b = random_sum(n, 1 + rng() % 4, rng);
    const ScbSum ab = a * b;
    CHECK(ab.size() <= a.size() * b.size());
    CHECK_NEAR(ab.to_matrix().max_abs_diff(a.to_matrix() * b.to_matrix()), 0.0,
               1e-12);
    const ScbSum sum = a + b, diff = a - b;
    CHECK_NEAR(sum.to_matrix().max_abs_diff(a.to_matrix() + b.to_matrix()), 0.0,
               1e-13);
    CHECK_NEAR(diff.to_matrix().max_abs_diff(a.to_matrix() - b.to_matrix()),
               0.0, 1e-13);
    CHECK_NEAR(a.adjoint().to_matrix().max_abs_diff(a.to_matrix().dagger()),
               0.0, 1e-13);
    CHECK_NEAR(a.commutator(b).to_matrix().max_abs_diff(
                   a.to_matrix() * b.to_matrix() - b.to_matrix() * a.to_matrix()),
               0.0, 1e-12);
  }

  // H = A + A† is Hermitian both by the predicate and by gathering.
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    const ScbSum a = random_sum(n, 3, rng);
    const ScbSum h = a + a.adjoint();
    CHECK(h.is_hermitian());
    const std::vector<ScbTerm> gathered = h.hermitian_terms();
    CHECK_NEAR(terms_matrix(gathered, n).max_abs_diff(h.to_matrix()), 0.0,
               1e-12);
  }

  // to_pauli matches the dense matrix; apply matches dense matvec.
  for (int it = 0; it < 20; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    const ScbSum a = random_sum(n, 4, rng);
    CHECK_NEAR(a.to_pauli().to_matrix(n).max_abs_diff(a.to_matrix()), 0.0,
               1e-12);
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> x = random_state(dim, rng);
    std::vector<cplx> y(dim, cplx(0.0));
    a.apply(x, y);
    CHECK_NEAR(vec_max_abs_diff(y, a.to_matrix().apply(x)), 0.0, 1e-12);
  }

  // -- compiled plan against the dense matrix, word family by family -------
  const std::vector<Scb> all(kAllScb.begin(), kAllScb.end());
  const std::vector<Scb> diag = {Scb::I, Scb::Z, Scb::N, Scb::M};
  const std::vector<Scb> flips = {Scb::Sp, Scb::Sm, Scb::Y, Scb::Z, Scb::I};
  const std::vector<Scb> pauli = {Scb::I, Scb::X, Scb::Y, Scb::Z};
  for (int it = 0; it < 16; ++it) {
    const std::size_t n = 1 + static_cast<std::size_t>(it % 8);
    // Random non-Hermitian sums: half the words carry their adjoint with an
    // independent coefficient (pair walks), the rest walk alone.
    ScbSum mixed(n);
    for (int t = 0; t < 12; ++t) {
      const std::vector<Scb> w = random_word(n, all, rng);
      mixed.add(w, random_coeff(rng));
      if (rng() % 2) mixed.add(adjoint_word(w), random_coeff(rng));
    }
    check_plan(mixed, rng);
    // Lone off-diagonal words only: no adjoint present.
    ScbSum lone(n);
    for (int t = 0; t < 6; ++t) {
      std::vector<Scb> w = random_word(n, flips, rng);
      w[rng() % n] = Scb::Sp;
      if (lone.coeff_of(adjoint_word(w)) == cplx(0.0))
        lone.add(w, random_coeff(rng));
    }
    check_plan(lone, rng);
    // Only diagonal words, complex coefficients (complex tables).
    ScbSum dcplx(n);
    for (int t = 0; t < 8; ++t)
      dcplx.add(random_word(n, diag, rng), random_coeff(rng));
    check_plan(dcplx, rng);
    // Only off-diagonal words: Y/Z strings and transitions, with adjoints.
    ScbSum offd(n);
    for (int t = 0; t < 8; ++t) {
      std::vector<Scb> w = random_word(n, t % 2 ? pauli : flips, rng);
      w[rng() % n] = t % 2 ? Scb::Y : Scb::Sm;
      offd.add(w, random_coeff(rng));
      offd.add(adjoint_word(w), random_coeff(rng));
    }
    check_plan(offd, rng);
    // Hermitian Y/Z sum with real diagonal words (real tables).
    ScbSum yz(n);
    for (int t = 0; t < 6; ++t) {
      yz.add(ScbTerm(random_coeff(rng), random_word(n, flips, rng), true));
      yz.add(random_word(n, diag, rng), random_coeff(rng, true));
    }
    check_plan(yz, rng);
  }

  // Straddling diagonal words: at n = 10 every split tried lies between
  // qubits 2 and 8, so the n/Z words on both stay out of the table and walk
  // alone next to the folded single-qubit words.
  {
    const std::size_t n = 10;
    ScbSum s(n);
    for (std::size_t q = 0; q < n; ++q) {
      std::vector<Scb> w(n, Scb::I);
      w[q] = Scb::N;
      s.add(w, random_coeff(rng, true));
    }
    std::vector<Scb> w(n, Scb::I);
    w[2] = Scb::N;
    w[8] = Scb::Z;
    s.add(w, cplx(0.7, 0.2));
    w[5] = Scb::M;
    s.add(w, -1.1);
    w[2] = Scb::Z;
    s.add(w, cplx(0.0, 0.4));
    check_plan(s, rng);
    const std::vector<cplx> x = random_state(s.dim(), rng);
    CHECK_EQ(sweeps(s, x), 4u);  // one table pass + three straddlers
  }

  // Sweep counts: a pair, a self-adjoint and a transition lone word, and
  // diagonal words folded into one pass.
  {
    ScbSum s(4);
    s.add(ScbTerm::parse("s+ Z s I", cplx(0.5, 0.1), false));
    s.add(ScbTerm::parse("s Z s+ I", cplx(-0.3, 0.4), false));
    s.add(ScbTerm::parse("X I Y Z", 0.8, false));
    s.add(ScbTerm::parse("I s+ n I", 0.2, false));
    s.add(ScbTerm::parse("n I I I", 0.9, false));
    s.add(ScbTerm::parse("I n n I", -0.4, false));
    s.add(ScbTerm::parse("I I Z Z", 0.3, false));
    check_plan(s, rng);
    const std::vector<cplx> x = random_state(s.dim(), rng);
    CHECK_EQ(sweeps(s, x), 4u);
    // A single projector word folds into the table like any other: one
    // full pass over all 16 amplitudes, not a walk over the 8 it selects.
    ScbSum one(4);
    one.add(ScbTerm::parse("I n I I", 1.5, false));
    check_plan(one, rng);
    CHECK_EQ(sweeps(one, x), 1u);
    CHECK_EQ(sweeps(one, x, telemetry::Counter::amplitudes_touched), 16u);
  }

  // -- n = 20 Hubbard ladder: the plan against the per-word kernels --------
  {
    HubbardParams p;
    p.lx = 5;
    p.ly = 2;
    p.u = 4.0;
    p.mu = 0.5;
    p.periodic_x = true;
    p.spinful = true;
    const ScbSum h = hubbard_scb(p);
    CHECK_EQ(h.size(), 90u);
    const std::vector<cplx> x = random_state(h.dim(), rng);
    std::vector<cplx> ref(h.dim(), cplx(0.0));
    cplx eref = 0.0;
    for (const auto& [word, c] : h.terms()) {
      const TermKernel k(ScbTerm(c, word, false));
      k.apply_add(x, ref);
      eref += k.expectation(x);
    }
    const int threads0 = num_threads();
    set_num_threads(1);
    std::vector<cplx> y1(h.dim(), cplx(0.0));
    h.apply_add(x, y1);
    const cplx e1 = h.expectation(x);
    CHECK_NEAR(vec_max_abs_diff(y1, ref), 0.0, 1e-12);
    CHECK_NEAR(e1 - eref, 0.0, 1e-12);
    CHECK_EQ(sweeps(h, x), 31u);  // 30 hop pairs + one diagonal pass
    // Bitwise across thread counts (apply); deterministic at a fixed count
    // (expectation).
    set_num_threads(4);
    std::vector<cplx> y4(h.dim(), cplx(0.0));
    h.apply_add(x, y4);
    CHECK(std::memcmp(y1.data(), y4.data(), y1.size() * sizeof(cplx)) == 0);
    const cplx e4 = h.expectation(x);
    CHECK(e4 == h.expectation(x));
    CHECK_NEAR(e4 - eref, 0.0, 1e-12);
    set_num_threads(threads0);
  }

  // one_norm and scalar scaling.
  {
    ScbSum s(1);
    s.add({Scb::X}, cplx(3.0, 4.0));
    s.add({Scb::N}, -2.0);
    CHECK_NEAR(s.one_norm(), 7.0, 1e-15);
    CHECK_NEAR((s * cplx(2.0)).one_norm(), 14.0, 1e-15);
    CHECK_NEAR((cplx(0.5) * s).one_norm(), 3.5, 1e-15);
  }

  // prune drops sub-tolerance terms.
  {
    ScbSum s(1);
    s.add({Scb::Z}, 1e-15, 0.0);  // tol 0 keeps it
    CHECK_EQ(s.size(), std::size_t{1});
    s.prune(1e-12);
    CHECK(s.empty());
  }

  return gecos::test::finish("test_scb_sum");
}
