// trotter_quench: the paper's construction — exact per-term SCB
// exponentials chained into Strang steps — on the 6x2 spinful lattice
// (n = 24, a 256 MiB state). Each quench starts from a seeded half-filling
// product state per spin and measures two site densities, the total double
// occupancy and the Loschmidt echo after every step.
#include <bit>
#include <memory>
#include <random>

#include "bench_common.hpp"
#include "evolve/trotter.hpp"
#include "fermion/hubbard.hpp"
#include "serve/batch.hpp"
#include "util/parallel.hpp"

namespace bench {

using namespace gecos;

namespace {

constexpr double kDt = 0.02;

struct QuenchCase {
  HubbardParams p;
  int steps = 0;  ///< Strang steps per quench
};

QuenchCase quench_case(Size size) {
  QuenchCase c;
  c.p = hubbard_ladder(size == Size::full ? 6 : 3);
  c.steps = size == Size::full ? 1 : 3;
  return c;
}

/// Seeded product state: half the sites hold a spin-up fermion and
/// (independently) half hold a spin-down one.
std::uint64_t draw_occupation(const HubbardParams& p, std::uint64_t seed,
                              std::size_t rep) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + rep);
  const std::size_t sites = hubbard_num_sites(p);
  std::uint64_t occ = 0;
  for (int spin = 0; spin < 2; ++spin) {
    std::vector<std::size_t> s(sites);
    for (std::size_t i = 0; i < sites; ++i) s[i] = i;
    std::shuffle(s.begin(), s.end(), rng);
    for (std::size_t i = 0; i < sites / 2; ++i)
      occ |= std::uint64_t{1} << hubbard_mode(p, s[i] % p.lx, s[i] / p.lx,
                                              spin);
  }
  return occ;
}

/// <H> of an occupation basis state: only the diagonal U and mu terms
/// survive.
double product_energy(const HubbardParams& p, std::uint64_t occ) {
  double e = 0.0;
  for (std::size_t s = 0; s < hubbard_num_sites(p); ++s) {
    const bool up = (occ >> hubbard_mode(p, s % p.lx, s / p.lx, 0)) & 1;
    const bool dn = (occ >> hubbard_mode(p, s % p.lx, s / p.lx, 1)) & 1;
    e += (up && dn ? p.u : 0.0) - p.mu * (up + dn);
  }
  return e;
}

struct Quencher {
  std::unique_ptr<ScbSum> h;
  std::unique_ptr<TrotterEvolver> ev;
  std::unique_ptr<StateVector> psi;
  std::vector<ScbSum> observables;

  void reset() {
    observables.clear();
    psi.reset();
    ev.reset();
    h.reset();
  }
};

void set_up(Quencher& q, const QuenchCase& c) {
  {
    GECOS_SPAN("bench.fermion.build");
    q.h = std::make_unique<ScbSum>(hubbard_scb(c.p));
  }
  {
    GECOS_SPAN("bench.evolve.compile");
    q.ev = std::make_unique<TrotterEvolver>(*q.h, 1e-12, 2, true);
  }
  const std::size_t n = hubbard_num_modes(c.p);
  q.psi = std::make_unique<StateVector>(n);
  using serve::ObservableKind;
  for (const serve::ObservableSpec& s :
       {serve::ObservableSpec{ObservableKind::kDensity, 0, 0},
        serve::ObservableSpec{ObservableKind::kDensity, 1, 0}})
    q.observables.push_back(serve::build_observable(c.p, s));
  ScbSum doublons(n);
  for (std::uint32_t s = 0; s < hubbard_num_sites(c.p); ++s)
    doublons.add(serve::build_observable(
        c.p, serve::ObservableSpec{ObservableKind::kDoublon, s, 0}));
  q.observables.push_back(std::move(doublons));
  // The first step fills the evolver's lazy per-dt phase tables: users pay
  // it once, before the first quench.
  GECOS_SPAN("bench.evolve.first_step");
  q.ev->step(*q.psi, kDt, 2);
}

/// Resets the state to the product state `occ` in place.
void prepare(StateVector& psi, std::uint64_t occ) {
  std::span<cplx> a = psi.amps();
  parallel_for(a.size(), [&](std::size_t b, std::size_t e, int) {
    std::fill(a.begin() + b, a.begin() + e, cplx(0.0));
  });
  a[occ] = cplx(1.0);
}

/// One fixed-length quench, appending each step's observables and
/// Loschmidt echo to `trajectory`.
void quench(Quencher& q, const QuenchCase& c, std::uint64_t occ,
              std::vector<double>& trajectory) {
  StateVector& psi = *q.psi;
  for (int s = 0; s < c.steps; ++s) {
    {
      GECOS_SPAN("bench.evolve.step");
      q.ev->step(psi, kDt, 2);
    }
    for (const ScbSum& obs : q.observables) {
      GECOS_SPAN("bench.state.observe");
      trajectory.push_back(psi.expectation(obs).real());
    }
    trajectory.push_back(std::norm(psi[occ]));  // psi0 is a basis state
  }
}

/// Norm, per-spin particle numbers and <H> drift after a quench.
void check_quench(Result& r, Quencher& q, const QuenchCase& c,
                  std::uint64_t occ, bool perturb) {
  const StateVector& psi = *q.psi;
  const std::uint64_t up = hubbard_species_mask(c.p, 0);
  const std::uint64_t dn = hubbard_species_mask(c.p, 1);
  const std::span<const cplx> a = psi.amps();
  double w = 0, nu = 0, nd = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double pr = std::norm(a[i]);
    w += pr;
    nu += pr * std::popcount(i & up);
    nd += pr * std::popcount(i & dn);
  }
  const double shift = perturb ? 1e-6 : 0.0;
  const double nu0 = std::popcount(occ & up) + shift;
  const double nd0 = std::popcount(occ & dn);
  const double e0 = product_energy(c.p, occ);
  const double e1 = psi.expectation(*q.h).real();
  // Strang conserves a modified Hamiltonian H + O(dt^2): the drift of <H>
  // stays inside C dt^2 with C of the order of the term-coefficient scale.
  const double envelope = kDt * kDt * hubbard_num_sites(c.p);
  std::fprintf(stderr,
               "  quench: norm-1=%.3g dNup=%.3g dNdn=%.3g dE=%.3g (env %.3g)\n",
               w - 1.0, nu - nu0, nd - nd0, e1 - e0, envelope);
  char what[200];
  std::snprintf(what, sizeof what,
                "quench norm-1=%.3g dNup=%.3g dNdn=%.3g dE=%.3g", w - 1.0,
                nu - nu0, nd - nd0, e1 - e0);
  r.check(std::abs(w - 1.0) <= 1e-10 && std::abs(nu - nu0) <= 1e-10 &&
              std::abs(nd - nd0) <= 1e-10 && std::abs(e1 - e0) <= envelope,
          what);
}

}  // namespace

Result run_trotter_quench(const Options& o) {
  const QuenchCase c = quench_case(o.size);
  Result r;
  Quencher q;
  std::vector<double> traj;
  if (!o.trace) {
    std::vector<double> setup_s;
    for (int rep = 0; rep < 3; ++rep) {
      q.reset();
      const double t0 = now_s();
      set_up(q, c);
      setup_s.push_back(now_s() - t0);
    }
    std::vector<double> quench_s;
    const double loop0 = now_s();
    std::size_t rep = 0;
    do {
      const std::uint64_t occ = draw_occupation(c.p, o.seed, rep++);
      r.input_digest = mix_digest(r.input_digest, &occ, sizeof occ);
      prepare(*q.psi, occ);
      const double t0 = now_s();
      quench(q, c, occ, traj);
      quench_s.push_back(now_s() - t0);
      std::fprintf(stderr, "  quench %zu: %.4f s\n", rep, quench_s.back());
      check_quench(r, q, c, occ, o.perturb_reference);
    } while (now_s() - loop0 < o.seconds);
    const double loop_s = now_s() - loop0;
    r.metrics.set("setup_s", median(setup_s), "s");
    add_job_metrics(r.metrics, quench_s, loop_s);
    r.metrics.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return r;
  }

  set_traced(true);
  set_up(q, c);
  set_traced(false);
  const std::uint64_t occ = draw_occupation(c.p, o.seed, 0);
  r.input_digest = mix_digest(r.input_digest, &occ, sizeof occ);
  prepare(*q.psi, occ);
  double t0 = now_s();
  quench(q, c, occ, traj);
  const double untraced_s = now_s() - t0;
  check_quench(r, q, c, occ, o.perturb_reference);

  prepare(*q.psi, occ);
  CounterWindow w;
  set_traced(true);
  w.start();
  t0 = now_s();
  {
    GECOS_SPAN("bench.evolve.quench");
    quench(q, c, occ, traj);
  }
  const double traced_s = now_s() - t0;
  const telemetry::MetricsSnapshot d = w.delta();
  set_traced(false);
  check_quench(r, q, c, occ, o.perturb_reference);

  const SpanDigest sp = SpanDigest::read();
  const std::vector<double> steps = sp.durations("bench.evolve.step");
  const double step_p50 = percentile(steps, 50.0);
  const double model = q.ev->step_traffic_bytes(2);
  Metrics& m = r.metrics;
  m.set("fermion.build_s", sp.total_s("bench.fermion.build"), "s");
  m.set("evolve.compile_s", sp.total_s("bench.evolve.compile"), "s");
  m.set("evolve.first_step_s", sp.total_s("bench.evolve.first_step"), "s");
  m.set("evolve.quench_s", sp.total_s("bench.evolve.quench"), "s");
  m.set("evolve.step_s", sum(steps), "s");
  m.set("evolve.step_ms_p50", step_p50 * 1e3, "ms");
  m.set("evolve.step_ms_p90", percentile(steps, 90.0) * 1e3, "ms");
  m.set("evolve.groups", static_cast<double>(q.ev->num_groups()), "count");
  m.set("evolve.model_bytes", model, "bytes");
  m.set("evolve.gbs", step_p50 > 0 ? model / step_p50 * 1e-9 : 0.0, "GB/s");
  m.set("state.observe_s", sp.total_s("bench.state.observe"), "s");
  m.set("state.observe_calls",
        static_cast<double>(sp.count("bench.state.observe")), "count");
  add_parallel_metrics(m, d);
  m.set("telemetry.trace_overhead_frac", traced_s / untraced_s - 1.0, "ratio");
  return r;
}

}  // namespace bench
