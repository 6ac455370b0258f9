// sector_ground and full_ground: k = 2 thick-restart Lanczos to residual
// 1e-8, in the (3,3) sector of the 8x2 lattice (n = 32) and in the full
// 2^20 space of the 5x2 lattice. The seed picks the start vectors.
#include <memory>
#include <optional>
#include <random>

#include "bench_common.hpp"
#include "fermion/hubbard.hpp"
#include "solver/lanczos.hpp"
#include "symmetry/sector_operator.hpp"

namespace bench {

using namespace gecos;

namespace {

/// One ground-state problem with its pinned reference values (computed with
/// the library this benchmark was introduced against, full precision).
struct GroundCase {
  HubbardParams p;
  bool sector = false;
  std::size_t n_up = 0;  ///< = n_down when sector
  double e0 = 0.0;
  double gap = 0.0;
};

GroundCase ground_case(bool sector, Size size) {
  GroundCase c;
  c.sector = sector;
  if (sector && size == Size::full) {  // n = 32, (3,3): dim 313,600
    c.p = hubbard_ladder(8);
    c.n_up = 3;
    c.e0 = -17.23756873622338;
    c.gap = 1.210056167013871;
  } else if (sector) {  // n = 16, (2,2): dim 784
    c.p = hubbard_ladder(4);
    c.n_up = 2;
    c.e0 = -9.0922664292385988;
    c.gap = 0.059659089938106646;
  } else if (size == Size::full) {  // n = 20 full space
    c.p = hubbard_ladder(5);
    c.e0 = -13.878579850172558;
    c.gap = 0.26927909434977337;
  } else {  // n = 12 full space
    c.p = hubbard_ladder(3);
    c.e0 = -8.3329621993847578;
    c.gap = 0.45502946089565999;
  }
  return c;
}

/// Seeded Gaussian start vector of rep `rep`.
std::vector<cplx> start_vector(std::size_t dim, std::uint64_t seed,
                               std::size_t rep) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + rep);
  std::normal_distribution<double> g;
  std::vector<cplx> v(dim);
  for (cplx& a : v) a = cplx(g(rng), g(rng));
  return v;
}

/// Everything set-up builds; members are declared in build order so they
/// are destroyed in reverse.
struct Problem {
  std::unique_ptr<ScbSum> h;
  std::optional<SectorBasis> basis;
  std::unique_ptr<SectorOperator> hs;
  std::unique_ptr<TimedOperator> op;
  std::unique_ptr<Lanczos> solver;

  /// Tears down in reverse build order (later members refer to earlier).
  void reset() {
    solver.reset();
    op.reset();
    hs.reset();
    basis.reset();
    h.reset();
  }
};

/// Builds the Hamiltonian, sector basis and operator, and the solver (whose
/// constructor preallocates the Krylov basis).
void set_up(Problem& pr, const GroundCase& c) {
  {
    GECOS_SPAN("bench.fermion.build");
    pr.h = std::make_unique<ScbSum>(hubbard_scb(c.p));
  }
  if (c.sector) {
    {
      GECOS_SPAN("bench.symmetry.basis");
      pr.basis.emplace(hubbard_sector(c.p, c.n_up, c.n_up));
    }
    GECOS_SPAN("bench.symmetry.compile");
    pr.hs = std::make_unique<SectorOperator>(*pr.basis, *pr.h);
  }
  pr.op = c.sector
              ? std::make_unique<TimedOperator>(*pr.hs, "bench.symmetry.apply")
              : std::make_unique<TimedOperator>(*pr.h, "bench.ops.apply");
  LanczosOptions lo;
  lo.k = 2;
  lo.tol = 1e-8;
  GECOS_SPAN("bench.solver.alloc");
  pr.solver = std::make_unique<Lanczos>(*pr.op, lo);
}

/// Correctness of one solve against the pinned references.
void check_solve(Result& r, const LanczosResult& lr, const GroundCase& c,
                 double shift) {
  const double e0 = lr.eigenvalues[0];
  const double gap = lr.eigenvalues[1] - lr.eigenvalues[0];
  std::fprintf(stderr, "  solve: E0=%.17g gap=%.17g matvecs=%zu conv=%d\n",
               e0, gap, lr.matvecs, lr.converged ? 1 : 0);
  char what[160];
  std::snprintf(what, sizeof what, "solve E0=%.12f gap=%.12f conv=%d", e0,
                gap, lr.converged ? 1 : 0);
  r.check(lr.converged && std::abs(e0 - (c.e0 + shift)) <= 1e-8 &&
              std::abs(gap - (c.gap + shift)) <= 1e-8,
          what);
}

Result run_ground(const Options& o, bool sector) {
  const GroundCase c = ground_case(sector, o.size);
  const double shift = o.perturb_reference ? 1e-6 : 0.0;
  Result r;
  Problem pr;
  if (!o.trace) {
    // Set up several times and report the median; each set-up starts from
    // nothing (the previous one is torn down first).
    std::vector<double> setup_s;
    for (int rep = 0; rep < 3; ++rep) {
      pr.reset();
      const double t0 = now_s();
      set_up(pr, c);
      setup_s.push_back(now_s() - t0);
    }
    std::vector<double> solve_s;
    const double loop0 = now_s();
    std::size_t rep = 0;
    do {
      const std::vector<cplx> v0 = start_vector(pr.op->dim(), o.seed, rep++);
      r.input_digest = mix_digest(r.input_digest, v0.data(), 64);
      const double t0 = now_s();
      const LanczosResult& lr = pr.solver->solve(v0);
      solve_s.push_back(now_s() - t0);
      std::fprintf(stderr, "  solve %zu: %.4f s\n", rep, solve_s.back());
      check_solve(r, lr, c, shift);
    } while (now_s() - loop0 < o.seconds);
    const double loop_s = now_s() - loop0;
    r.metrics.set("setup_s", median(setup_s), "s");
    add_job_metrics(r.metrics, solve_s, loop_s);
    r.metrics.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return r;
  }

  // Traced run: one traced set-up, then the same solve untraced and traced.
  set_traced(true);
  set_up(pr, c);
  set_traced(false);
  const std::vector<cplx> v0 = start_vector(pr.op->dim(), o.seed, 0);
  r.input_digest = mix_digest(r.input_digest, v0.data(), 64);
  double t0 = now_s();
  check_solve(r, pr.solver->solve(v0), c, shift);
  const double untraced_s = now_s() - t0;

  CounterWindow w;
  set_traced(true);
  w.start();
  t0 = now_s();
  {
    GECOS_SPAN("bench.solver.solve");
    check_solve(r, pr.solver->solve(v0), c, shift);
  }
  const double traced_s = now_s() - t0;
  const telemetry::MetricsSnapshot d = w.delta();
  set_traced(false);
  const LanczosResult& lr = pr.solver->result();

  const SpanDigest sp = SpanDigest::read();
  const char* apply_span = sector ? "bench.symmetry.apply" : "bench.ops.apply";
  const std::string layer = sector ? "symmetry" : "ops";
  const std::vector<double> apply = sp.durations(apply_span);
  const double apply_s = sum(apply);
  const double solve_s = sp.total_s("bench.solver.solve");
  const double bytes =
      static_cast<double>(d.counter(telemetry::Counter::bytes_moved));
  Metrics& m = r.metrics;
  m.set("fermion.build_s", sp.total_s("bench.fermion.build"), "s");
  m.set("symmetry.basis_s", sp.total_s("bench.symmetry.basis"), "s");
  m.set("symmetry.compile_s", sp.total_s("bench.symmetry.compile"), "s");
  m.set(layer + ".apply_s", apply_s, "s");
  m.set(layer + ".apply_calls", static_cast<double>(apply.size()), "count");
  m.set(layer + ".apply_ms_p50", percentile(apply, 50.0) * 1e3, "ms");
  m.set(layer + ".apply_ms_p90", percentile(apply, 90.0) * 1e3, "ms");
  m.set(layer + ".bytes_moved", bytes, "bytes");
  m.set(layer + ".gbs", apply_s > 0 ? bytes / apply_s * 1e-9 : 0.0, "GB/s");
  if (!sector)
    m.set("ops.kernel_sweeps",
          static_cast<double>(d.counter(telemetry::Counter::kernel_sweeps)),
          "count");
  m.set("solver.alloc_s", sp.total_s("bench.solver.alloc"), "s");
  m.set("solver.solve_s", solve_s, "s");
  m.set("solver.self_s", solve_s - apply_s, "s");
  m.set("solver.self_share", solve_s > 0 ? (solve_s - apply_s) / solve_s : 0,
        "ratio");
  m.set("solver.matvecs", static_cast<double>(lr.matvecs), "count");
  m.set("solver.iterations", static_cast<double>(lr.iterations), "count");
  m.set("solver.restarts", static_cast<double>(lr.restarts), "count");
  add_parallel_metrics(m, d);
  m.set("telemetry.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
  return r;
}

}  // namespace

Result run_sector_ground(const Options& o) { return run_ground(o, true); }
Result run_full_ground(const Options& o) { return run_ground(o, false); }

}  // namespace bench
