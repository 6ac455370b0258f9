// StateVector layer and the unified LinearOperator interface: construction,
// norms and inner products, expectation values against dense quadratic
// forms (including the scratch-free ScbSum path: term families, NaN guard,
// zero allocations), in-place apply through the scratch path, and interface
// conformance of the concrete qubit-register operators (PauliSum, ScbSum,
// TermKernel).
#include "alloc_probe.hpp"

#include <random>
#include <tuple>
#include <vector>

#include "linalg/blas1.hpp"
#include "ops/pauli.hpp"
#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "state/state_vector.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

using namespace gecos;

namespace {

/// Random ScbSum of `terms` Hermitian pairs on n qubits.
ScbSum random_hermitian_sum(std::size_t n, int terms, std::mt19937& rng) {
  std::uniform_real_distribution<double> cd(-1.0, 1.0);
  ScbSum s(n);
  for (int j = 0; j < terms; ++j) {
    std::vector<Scb> ops(n);
    for (auto& o : ops) o = kAllScb[rng() % kAllScb.size()];
    s.add(ScbTerm(cplx(cd(rng), cd(rng)), ops, true));
  }
  return s;
}

/// <x|M|x> via the dense matrix (ground truth).
cplx dense_expectation(const Matrix& m, std::span<const cplx> x) {
  return vec_dot(x, m.apply(x));
}

/// Sum of the given (coeff, word, h.c.) terms, words in paper order.
ScbSum sum_of(std::size_t n,
              const std::vector<std::tuple<cplx, const char*, bool>>& ts) {
  ScbSum s(n);
  for (const auto& [c, word, hc] : ts) s.add(ScbTerm::parse(word, c, hc));
  return s;
}

/// |a - b| / max(|b|, 1): the relative agreement bound of the expectation
/// checks (absolute near zero).
double rel_diff(cplx a, cplx b) {
  return std::abs(a - b) / std::max(std::abs(b), 1.0);
}

}  // namespace

int main() {
  std::mt19937 rng(99);

  // Constructors: default |0..0>, basis index, product bitmask, random.
  {
    StateVector zero(3);
    CHECK_EQ(zero.dim(), std::size_t{8});
    CHECK_NEAR(zero[0] - cplx(1.0), 0.0, 0.0);
    CHECK_NEAR(zero.norm(), 1.0, 0.0);

    const StateVector b = StateVector::basis(3, 5);
    CHECK_NEAR(b[5] - cplx(1.0), 0.0, 0.0);
    CHECK_NEAR(b[0], 0.0, 0.0);

    const StateVector pr = StateVector::product(4, 0b1010);
    CHECK_NEAR(pr[0b1010] - cplx(1.0), 0.0, 0.0);

    const StateVector r1 = StateVector::random(5, 42);
    const StateVector r2 = StateVector::random(5, 42);
    CHECK_NEAR(r1.norm(), 1.0, 1e-12);
    CHECK_NEAR(r1.max_abs_diff(r2), 0.0, 0.0);  // seeded => reproducible

    bool threw = false;
    try {
      StateVector::basis(2, 4);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // Inner products and normalization.
  {
    StateVector a = StateVector::random(4, 1);
    const StateVector b = StateVector::random(4, 2);
    CHECK_NEAR(a.inner(a) - cplx(1.0), 0.0, 1e-12);
    // Conjugate symmetry <a|b> = conj(<b|a>).
    CHECK_NEAR(a.inner(b) - std::conj(b.inner(a)), 0.0, 1e-12);
    vec_scale(a.amps(), cplx(0.0, 2.5));
    CHECK_NEAR(a.norm(), 2.5, 1e-12);
    a.normalize();
    CHECK_NEAR(a.norm(), 1.0, 1e-12);
  }

  // Expectation values against dense quadratic forms, for ScbSum and its
  // Pauli expansion (same operator, two kernels, one interface).
  for (int it = 0; it < 10; ++it) {
    const std::size_t n = 2 + it % 3;
    const ScbSum s = random_hermitian_sum(n, 4, rng);
    const PauliSum ps = s.to_pauli();
    const Matrix m = s.to_matrix();
    const StateVector x = StateVector::random(n, 1000 + it);
    const cplx es = x.expectation(s);
    const cplx ep = x.expectation(ps);
    const cplx ed = dense_expectation(m, x.amps());
    CHECK_NEAR(es - ed, 0.0, 1e-12);
    CHECK_NEAR(ep - ed, 0.0, 1e-12);
    CHECK_NEAR(es.imag(), 0.0, 1e-12);  // Hermitian => real expectation
  }

  // Scratch-free ScbSum expectation: one family of terms at a time, against
  // the dense quadratic form and against the generic apply + dot path (the
  // LinearOperator overload). n = 6 keeps three low qubits free in some
  // words, so both the wide run walk and the scalar walk are exercised.
  {
    const std::size_t n = 6;
    const std::vector<std::pair<const char*, ScbSum>> families = {
        {"diagonal",
         sum_of(n, {{cplx(0.7), "I I I n Z m", false},
                    {cplx(-1.3), "Z n I I I I", false},
                    {cplx(0.4), "m m n n Z Z", false},
                    {cplx(2.1), "I I I I I I", false}})},
        {"hopping + h.c.",
         sum_of(n, {{cplx(-1.0), "I I I s+ Z s", true},
                    {cplx(0.5, 0.2), "s+ Z Z s I I", true},
                    {cplx(-0.8), "I s+ s I I I", true}})},
        {"Y terms",
         sum_of(n, {{cplx(0.3, -0.9), "I I I Y X Z", true},
                    {cplx(1.1), "Y Y I I I I", false},
                    {cplx(-0.6, 0.4), "X n Y I I Y", false}})},
        {"transitions",
         sum_of(n, {{cplx(0.9, 0.1), "s I I n s+ I", false},
                    {cplx(-0.2, 0.7), "I I I s+ s+ m", false},
                    {cplx(1.4), "s s+ X I I I", true}})},
    };
    for (const auto& [name, h] : families) {
      const StateVector x = StateVector::random(n, 4242);
      const cplx e = x.expectation(h);
      const cplx ed = dense_expectation(h.to_matrix(), x.amps());
      const cplx eg = x.expectation(static_cast<const LinearOperator&>(h));
      if (rel_diff(e, ed) > 1e-12 || rel_diff(e, eg) > 1e-12)
        std::printf("family %s: scb %.17g%+.17gi dense %.17g%+.17gi\n", name,
                    e.real(), e.imag(), ed.real(), ed.imag());
      CHECK(rel_diff(e, ed) <= 1e-12);
      CHECK(rel_diff(e, eg) <= 1e-12);
    }

    // Selection outside the dimension: a 7-qubit word whose n factor sits
    // on qubit 6 selects nothing in a 2^6 vector — the read-only walk
    // returns 0, exactly as apply_add leaves y untouched.
    const TermKernel k(ScbTerm::parse("X I I I I I n", cplx(0.5), false));
    const StateVector x = StateVector::random(n, 77);
    std::vector<cplx> y(x.dim(), cplx(0.0));
    k.apply_add(x.amps(), y);
    CHECK_EQ(vec_dot(x.amps(), y), cplx(0.0));
    CHECK_EQ(k.expectation(x.amps()), cplx(0.0));

    // A size mismatch is API misuse, as on the generic path.
    bool threw = false;
    try {
      (void)families[0].second.expectation(StateVector::random(5, 1).amps());
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }

  // Parallel chunks: at n = 14 the term walks split over four workers, and
  // the per-chunk partials still agree with apply + dot.
  {
    const int threads0 = num_threads();
    set_num_threads(4);
    const std::size_t n = 14;
    const ScbSum h = random_hermitian_sum(n, 12, rng);
    const StateVector x = StateVector::random(n, 5150);
    const cplx e = x.expectation(h);
    const cplx eg = x.expectation(static_cast<const LinearOperator&>(h));
    CHECK(rel_diff(e, eg) <= 1e-12);
    CHECK_EQ(e, x.expectation(h));  // deterministic for a fixed count
    set_num_threads(threads0);
  }

  // The NaN guard of vec_dot carries over: a non-finite amplitude the sum
  // reads surfaces as Error{numerical_nan}.
  {
    const ScbSum h = sum_of(4, {{cplx(1.0), "s+ s I I", true},
                                {cplx(0.5), "n I I I", false}});
    StateVector x = StateVector::random(4, 8);
    x[1] = cplx(std::nan(""), 0.0);
    bool nan_kind = false;
    try {
      (void)x.expectation(h);
    } catch (const Error& e) {
      nan_kind = e.kind() == ErrorKind::numerical_nan;
    }
    CHECK(nan_kind);
  }

  // Zero allocations: once the sum's kernels are compiled, the expectation
  // of a state that never used the generic path allocates nothing — so its
  // scratch buffer is never sized — serially and across four workers.
  {
    const int threads0 = num_threads();
    const std::size_t n = 14;
    const ScbSum h = random_hermitian_sum(n, 6, rng);
    const StateVector warm = StateVector::random(n, 9);
    (void)warm.expectation(h);  // compiles the kernel cache
    const StateVector x = StateVector::random(n, 10);
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      (void)warm.expectation(h);  // starts the pool at this size
      const long before = gecos::test::allocations();
      const cplx e = x.expectation(h);
      const long delta = gecos::test::allocations() - before;
      CHECK(std::isfinite(e.real()));
#if GECOS_ALLOC_PROBE_ACTIVE
      std::printf("alloc probe: %ld allocations in an n=14 ScbSum "
                  "expectation at %d thread(s)\n", delta, threads);
      CHECK_EQ(delta, 0);
#else
      (void)delta;
#endif
    }
    set_num_threads(threads0);
  }

  // In-place apply through the internal scratch (x <- A x), and the
  // two-buffer overwrite apply of the base interface.
  for (int it = 0; it < 10; ++it) {
    const std::size_t n = 2 + it % 3;
    const std::size_t dim = std::size_t{1} << n;
    const ScbSum s = random_hermitian_sum(n, 3, rng);
    const Matrix m = s.to_matrix();
    StateVector x = StateVector::random(n, 2000 + it);
    const std::vector<cplx> expect = m.apply(x.amps());
    x.apply(s);
    CHECK_NEAR(vec_max_abs_diff(x.amps(), expect), 0.0, 1e-12);

    // Overwrite semantics: y's prior garbage must not leak into the result.
    std::vector<cplx> y(dim, cplx(7.0, -3.0));
    const StateVector x2 = StateVector::random(n, 3000 + it);
    static_cast<const LinearOperator&>(s).apply(x2.amps(), y);
    CHECK_NEAR(vec_max_abs_diff(y, m.apply(x2.amps())), 0.0, 1e-12);
  }

  // TermKernel conformance: bare product against its dense matrix.
  {
    const ScbTerm t = ScbTerm::parse("n s+ X m s", cplx(0.4, -1.1), false);
    const TermKernel k(t);
    CHECK_EQ(k.n_qubits(), std::size_t{5});
    const StateVector x = StateVector::random(5, 7);
    std::vector<cplx> y(x.dim());
    k.apply(x.amps(), y);
    CHECK_NEAR(vec_max_abs_diff(y, t.bare_matrix().apply(x.amps())), 0.0,
               1e-12);
  }

  // apply_inplace: the sanctioned in-place path matches the two-buffer one.
  {
    const ScbSum s = random_hermitian_sum(3, 4, rng);
    const StateVector x0 = StateVector::random(3, 31);
    std::vector<cplx> a(x0.amps().begin(), x0.amps().end());
    std::vector<cplx> scratch(a.size());
    s.apply_inplace(a, scratch);
    std::vector<cplx> b(a.size());
    s.apply(x0.amps(), b);
    CHECK_NEAR(vec_max_abs_diff(a, b), 0.0, 0.0);
  }

  return gecos::test::finish("test_state");
}
