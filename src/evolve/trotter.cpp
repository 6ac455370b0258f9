#include "evolve/trotter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "simd/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"

namespace gecos {

namespace {

/// Runs shorter than 2^3 complex amplitudes are not worth the wide-kernel
/// call; the scalar walk handles them.
constexpr int kMinRunBits = 3;

/// Batch-group caps: at most this many rotations share one traversal and
/// their combined flip orbit stays within kMaxBatchFlipBits bits.
constexpr std::size_t kMaxBatchMembers = 6;
constexpr int kMaxBatchFlipBits = 8;

/// Batch cell cap: a cell (flip orbit x contiguous run) spans at most
/// 2^17 amplitudes = 2 MiB, L2-resident, where the intra-cell reuse that
/// makes batching a bandwidth win comes from. The cell is also the unit of
/// DRAM access: it is 2^flip_bits fragments of one run each, so a larger
/// cap means longer runs (at n = 24 an L1-sized 2^11 cap left 256 scattered
/// 128-byte fragments per cell). The cap shrinks until the state holds at
/// least 2^kCellsPerWorkerBits cells per worker, so the pool stays busy,
/// but never below the 2^11 floor: there a run is still at least
/// 2^(11 - kMaxBatchFlipBits) = 2^kMinRunBits long wherever the state
/// allows one, so the short-run scalar fallback (which does not round like
/// pair_rot) never takes over from the wide kernel. Cell size only regroups
/// which pairs a traversal visits together; every amplitude sees the same
/// rotations with the same arithmetic in the same order, so the step is
/// bitwise independent of the cap and hence of the thread count.
constexpr int kMaxBatchCellBits = 17;
constexpr int kMinBatchCellBits = 11;
constexpr int kCellsPerWorkerBits = 2;

/// Upper bound on one fused diagonal group's table memory (angle + phase,
/// 24 bytes per basis state). Groups past it stay unfused singles.
constexpr std::size_t kDiagTableBudget = std::size_t{512} << 20;

/// Symbolic commutation tolerance: a Hermitian-part commutator with one-norm
/// at or below this is operator zero (the symbolic algebra produces exact
/// cancellations; the tolerance only absorbs coefficient rounding), so
/// reordering the two exponentials leaves the product-formula step exactly
/// unchanged.
constexpr double kCommuteTol = 1e-12;

}  // namespace

TermExp::TermExp(const ScbTerm& term)
    : kernel_(term), add_hc_(term.add_hc()) {
  if (!term.is_valid_hamiltonian())
    throw std::invalid_argument("TermExp: term is not a valid Hamiltonian");
  diagonal_ = kernel_.flip == 0;
  // The h.c. partner state s ^ flip is itself selected exactly when no
  // flipped position carries an input constraint (i.e. no transition
  // factors); then A couples |s> <-> |s ^ flip> within the selected set.
  pair_in_sel_ = (kernel_.flip & kernel_.select_mask) == 0;
  if (diagonal_) {
    // H acts as d(s) = sgn(s) * d0 on selected states. Without h.c. the
    // validity check forces a real base; with h.c. the imaginary part
    // cancels against the conjugate term.
    d0_ = add_hc_ ? 2.0 * kernel_.base.real() : kernel_.base.real();
  } else {
    // On the pair (|s>, |s2 = s ^ flip>) the Hermitian block is
    // [[0, conj(h)], [h, 0]] with h(s) = <s2|H|s> = sgn(s) * h0:
    //   - bare Hermitian term (no h.c.): h0 = base (A alone is Hermitian);
    //   - h.c. with transitions: s2 is unselected, only A reaches |s2>,
    //     h0 = base;
    //   - h.c. without transitions: both A and A† couple the pair,
    //     h0 = base + (-1)^{pc(sign & flip)} * conj(base), because
    //     sgn(s2) = sgn(s) * (-1)^{pc(sign & flip)}.
    h0_ = kernel_.base;
    if (add_hc_ && pair_in_sel_) {
      const bool neg = std::popcount(kernel_.sign_mask & kernel_.flip) & 1;
      h0_ += neg ? -std::conj(kernel_.base) : std::conj(kernel_.base);
    }
  }
}

void TermExp::apply(double t, std::span<cplx> x) const {
  assert(std::has_single_bit(x.size()));
  const std::uint64_t dim_mask = x.size() - 1;
  if ((kernel_.select_val & ~dim_mask) != 0) return;  // nothing selected
  const std::uint64_t select_val = kernel_.select_val;
  const std::uint64_t sign_mask = kernel_.sign_mask;
  const std::uint64_t flip = kernel_.flip;

  if (diagonal_) {
    if (d0_ == 0.0) return;
    const cplx phase_pos = std::polar(1.0, -t * d0_);
    const cplx phase_neg = std::conj(phase_pos);
    const std::uint64_t free_mask = dim_mask & ~kernel_.select_mask;

    // Contiguous-run split (same structure as TermKernel::apply_add): low
    // free bits outside sign_mask index runs of adjacent states with the
    // same phase, so each run is one wide scale sweep.
    const std::uint64_t run_mask = trailing_run_mask(free_mask & ~sign_mask);
    const int run_bits = std::popcount(run_mask);
    if (run_bits >= kMinRunBits) {
      const std::size_t run = std::size_t{1} << run_bits;
      const std::uint64_t outer_mask = free_mask & ~run_mask;
      const std::size_t count = std::size_t{1} << std::popcount(outer_mask);
      const simd::Kernels& kn = simd::active();
      parallel_for(
          count,
          [&](std::size_t i0, std::size_t i1, int) {
            std::uint64_t sub = scatter_bits(i0, outer_mask);
            for (std::size_t i = i0; i < i1; ++i) {
              const std::uint64_t s = sub | select_val;
              kn.scale(x.data() + s, run,
                       (std::popcount(sign_mask & s) & 1) ? phase_neg
                                                          : phase_pos);
              sub = (sub - outer_mask) & outer_mask;
            }
          },
          std::max<std::size_t>(1, kParallelGrain >> run_bits));
      return;
    }

    const std::size_t count = std::size_t{1} << std::popcount(free_mask);
    parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
      std::uint64_t sub = scatter_bits(i0, free_mask);
      for (std::size_t i = i0; i < i1; ++i) {
        const std::uint64_t s = sub | select_val;
        x[s] *= (std::popcount(sign_mask & s) & 1) ? phase_neg : phase_pos;
        sub = (sub - free_mask) & free_mask;
      }
    });
    return;
  }

  const double habs = std::abs(h0_);
  if (habs == 0.0) return;  // coupling cancelled: exp is the identity
  const double c = std::cos(t * habs);
  const double sn = std::sin(t * habs);
  const cplx unit = h0_ / habs;
  // exp(-i t [[0, conj(h)], [h, 0]]) = cos(t|h|) I - i sin(t|h|) H / |h|:
  //   x[s]  <- c x[s] + sgn * v * x[s2],   v = -i sin * conj(unit)
  //   x[s2] <- sgn * u * x[s] + c x[s2],   u = -i sin * unit
  const cplx u = cplx(0.0, -sn) * unit;
  const cplx v = cplx(0.0, -sn) * std::conj(unit);

  // Enumerate one representative s per coupled pair. When the partner is
  // itself selected, halve the walk by pinning the lowest flip bit (a free
  // bit, since no flipped position is constrained) to zero.
  std::uint64_t free_mask = dim_mask & ~kernel_.select_mask;
  if (pair_in_sel_) free_mask &= ~(flip & (~flip + 1));

  // Contiguous-run split: low free bits outside sign and flip give runs
  // with constant rotation data whose two streams s and s ^ flip both
  // advance through adjacent memory — one wide pair_rot per run.
  const std::uint64_t run_mask =
      trailing_run_mask(free_mask & ~sign_mask & ~flip);
  const int run_bits = std::popcount(run_mask);
  if (run_bits >= kMinRunBits) {
    const std::size_t run = std::size_t{1} << run_bits;
    const std::uint64_t outer_mask = free_mask & ~run_mask;
    const std::size_t count = std::size_t{1} << std::popcount(outer_mask);
    const simd::Kernels& kn = simd::active();
    parallel_for(
        count,
        [&](std::size_t i0, std::size_t i1, int) {
          std::uint64_t sub = scatter_bits(i0, outer_mask);
          for (std::size_t i = i0; i < i1; ++i) {
            const std::uint64_t s = sub | select_val;
            const bool neg = std::popcount(sign_mask & s) & 1;
            kn.pair_rot(x.data() + s, x.data() + (s ^ flip), run, c,
                        neg ? -u : u, neg ? -v : v);
            sub = (sub - outer_mask) & outer_mask;
          }
        },
        std::max<std::size_t>(1, kParallelGrain >> run_bits));
    return;
  }

  const std::size_t count = std::size_t{1} << std::popcount(free_mask);
  parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
    std::uint64_t sub = scatter_bits(i0, free_mask);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::uint64_t s = sub | select_val;
      const std::uint64_t s2 = s ^ flip;
      const bool neg = std::popcount(sign_mask & s) & 1;
      const cplx xs = x[s], xs2 = x[s2];
      if (neg) {
        x[s] = c * xs - v * xs2;
        x[s2] = -u * xs + c * xs2;
      } else {
        x[s] = c * xs + v * xs2;
        x[s2] = u * xs + c * xs2;
      }
      sub = (sub - free_mask) & free_mask;
    }
  });
}

TrotterEvolver::TrotterEvolver(const ScbSum& h, double tol, int order,
                               bool fuse)
    : order_(order), fuse_(fuse) {
  n_ = h.num_qubits();
  if (n_ == 0)
    throw std::invalid_argument("TrotterEvolver: empty Hamiltonian");
  if (order != 1 && order != 2)
    throw std::invalid_argument("TrotterEvolver: order must be 1 or 2");
  std::vector<ScbTerm> terms = h.hermitian_terms(tol);
  // Canonical diagonal-major splitting order: all diagonal terms first
  // (mutually commuting, so their relative order is immaterial), then the
  // off-diagonal terms in input order. Any term order is an equally valid
  // product-formula splitting; this one groups the commuting diagonal
  // family into one block — the split-step convention — which the fusion
  // pass then collapses into a single phase-table sweep. Both the fused
  // and the unfused (fuse = false) paths share this order, so they realize
  // the SAME operator product.
  std::stable_partition(terms.begin(), terms.end(), [](const ScbTerm& t) {
    return TermKernel(t).flip == 0;
  });
  exps_.reserve(terms.size());
  for (const ScbTerm& t : terms) exps_.emplace_back(t);
  build_schedule(terms);
}

void TrotterEvolver::build_schedule(const std::vector<ScbTerm>& terms) {
  groups_.clear();
  diagonals_.clear();
  const std::size_t nt = exps_.size();
  if (!fuse_) {
    groups_.resize(nt);
    for (std::size_t t = 0; t < nt; ++t) groups_[t].members = {t};
    return;
  }

  // Symbolic Hermitian parts for the commutation tests that make reordering
  // legal: two exponentials may swap exactly when their Hermitian terms
  // commute as operators, which the SCB algebra decides symbolically.
  std::vector<ScbSum> hsums;
  hsums.reserve(nt);
  for (const ScbTerm& t : terms) {
    ScbSum s(n_);
    s.add(t);
    hsums.push_back(std::move(s));
  }
  const auto commutes = [&](std::size_t a, std::size_t b) {
    if (exps_[a].diagonal() && exps_[b].diagonal()) return true;
    const TermKernel& ka = exps_[a].kernel();
    const TermKernel& kb = exps_[b].kernel();
    const std::uint64_t sa = ka.flip | ka.select_mask | ka.sign_mask;
    const std::uint64_t sb = kb.flip | kb.select_mask | kb.sign_mask;
    if ((sa & sb) == 0) return true;  // disjoint qubit support
    return hsums[a].commutator(hsums[b]).one_norm() <= kCommuteTol;
  };

  // Greedy ASAP scheduling. Each term scans back for the LAST group holding
  // a member it does not commute with (the barrier — the term cannot move
  // past it without changing the operator product), then joins the earliest
  // compatible group after the barrier, else opens a new group at the end.
  // Joining appends the term after the target group's members and before
  // every later group — all verified commuting — so the flattened schedule
  // is reachable from the input order by swaps of commuting exponentials
  // and the step operator is EXACTLY the unfused one.
  struct Cand {
    std::vector<std::size_t> members;
    bool all_diag = false;
    std::uint64_t flip_union = 0;
  };
  std::vector<Cand> cands;
  for (std::size_t t = 0; t < nt; ++t) {
    const TermKernel& k = exps_[t].kernel();
    const bool diag = exps_[t].diagonal();
    std::size_t barrier = 0;  // groups [barrier, end) all commute with t
    for (std::size_t g = cands.size(); g-- > 0;) {
      bool ok = true;
      for (std::size_t m : cands[g].members)
        if (!commutes(t, m)) {
          ok = false;
          break;
        }
      if (!ok) {
        barrier = g + 1;
        break;
      }
    }
    bool joined = false;
    for (std::size_t g = barrier; g < cands.size() && !joined; ++g) {
      Cand& c = cands[g];
      if (diag != c.all_diag) continue;
      if (diag) {
        c.members.push_back(t);
        joined = true;
        continue;
      }
      // Rotation batch join: the candidate's flip must stay out of every
      // member's flip and select support (and vice versa) so the batch
      // traversal's per-cell pair enumerations never interleave — sign
      // overlap is fine, the sign is read from the actual state.
      if (c.members.size() >= kMaxBatchMembers) continue;
      if (std::popcount(c.flip_union | k.flip) > kMaxBatchFlipBits) continue;
      bool disjoint = true;
      for (std::size_t m : c.members) {
        const TermKernel& km = exps_[m].kernel();
        if ((k.flip & (km.flip | km.select_mask)) != 0 ||
            (km.flip & (k.flip | k.select_mask)) != 0) {
          disjoint = false;
          break;
        }
      }
      if (!disjoint) continue;
      c.members.push_back(t);
      c.flip_union |= k.flip;
      joined = true;
    }
    if (!joined) cands.push_back({{t}, diag, k.flip});
  }

  // Materialize the groups. Diagonal groups fuse into a phase table only
  // when the members' combined selected coverage beats the fused sweep's
  // one-full-pass cost by ~1.5x (and the table fits the budget); otherwise
  // they demote to singles in scheduled order, which is still the exact
  // operator (diagonals commute).
  const std::size_t dim = std::size_t{1} << n_;
  const std::uint64_t dim_mask = dim - 1;
  for (Cand& c : cands) {
    if (c.all_diag && c.members.size() >= 2 &&
        dim * (sizeof(double) + sizeof(cplx)) <= kDiagTableBudget) {
      double cov = 0.0;
      for (std::size_t m : c.members) {
        const TermKernel& k = exps_[m].kernel();
        if (exps_[m].d0() == 0.0 || (k.select_val & ~dim_mask) != 0) continue;
        cov += std::ldexp(1.0, static_cast<int>(n_) -
                                   std::popcount(k.select_mask));
      }
      if (2.0 * cov >= 3.0 * static_cast<double>(dim)) {
        FusedDiagonal fd;
        fd.angle.assign(dim, 0.0);
        for (std::size_t m : c.members) {
          const TermKernel& k = exps_[m].kernel();
          const double d0 = exps_[m].d0();
          if (d0 == 0.0 || (k.select_val & ~dim_mask) != 0) continue;
          const std::uint64_t free_mask = dim_mask & ~k.select_mask;
          const std::uint64_t select_val = k.select_val;
          const std::uint64_t sign_mask = k.sign_mask;
          const std::size_t count = std::size_t{1}
                                    << std::popcount(free_mask);
          double* angle = fd.angle.data();
          parallel_for(count, [&](std::size_t i0, std::size_t i1, int) {
            std::uint64_t sub = scatter_bits(i0, free_mask);
            for (std::size_t i = i0; i < i1; ++i) {
              const std::uint64_t s = sub | select_val;
              angle[s] += (std::popcount(sign_mask & s) & 1) ? -d0 : d0;
              sub = (sub - free_mask) & free_mask;
            }
          });
        }
        fd.phase.assign(dim, cplx(0.0));
        diagonals_.push_back(std::move(fd));
        Group g;
        g.kind = Group::Kind::diagonal;
        g.members = std::move(c.members);
        g.diag_index = static_cast<int>(diagonals_.size()) - 1;
        groups_.push_back(std::move(g));
        continue;
      }
    }
    if (!c.all_diag && c.members.size() >= 2) {
      Group g;
      g.kind = Group::Kind::batch;
      g.members = std::move(c.members);
      g.flip_union = c.flip_union;
      groups_.push_back(std::move(g));
      continue;
    }
    for (std::size_t m : c.members) {
      Group g;
      g.members = {m};
      groups_.push_back(std::move(g));
    }
  }
}

void TrotterEvolver::apply_group(const Group& g, double dt, std::span<cplx> x,
                                 bool reverse) const {
  switch (g.kind) {
    case Group::Kind::diagonal:
      // Commuting phases: member order is immaterial, forward == reverse.
      apply_fused_diagonal(diagonals_[g.diag_index], dt, x);
      return;
    case Group::Kind::batch:
      apply_batch(g, dt, x, reverse);
      return;
    case Group::Kind::single:
      break;
  }
  if (reverse) {
    for (std::size_t i = g.members.size(); i-- > 0;)
      exps_[g.members[i]].apply(dt, x);
  } else {
    for (std::size_t m : g.members) exps_[m].apply(dt, x);
  }
}

void TrotterEvolver::apply_fused_diagonal(const FusedDiagonal& fd, double dt,
                                          std::span<cplx> x) const {
  assert(x.size() == fd.angle.size());
  {
    std::scoped_lock lock(phase_mutex_);
    if (!fd.phase_valid || fd.cached_dt != dt) {
      const double* angle = fd.angle.data();
      cplx* phase = fd.phase.data();
      parallel_for(fd.phase.size(), [&](std::size_t lo, std::size_t hi, int) {
        for (std::size_t s = lo; s < hi; ++s)
          phase[s] = std::polar(1.0, -dt * angle[s]);
      });
      fd.cached_dt = dt;
      fd.phase_valid = true;
    }
  }
  const simd::Kernels& kn = simd::active();
  parallel_for(x.size(), [&](std::size_t lo, std::size_t hi, int) {
    kn.phase_mul(x.data() + lo, fd.phase.data() + lo, hi - lo);
  });
}

void TrotterEvolver::apply_batch(const Group& g, double dt, std::span<cplx> x,
                                 bool reverse) const {
  const std::uint64_t dim_mask = x.size() - 1;
  // Per-member rotation data in apply order (a handful of cos/sin per
  // apply — nothing here allocates).
  struct Member {
    std::uint64_t flip = 0;
    std::uint64_t sign = 0;
    std::uint64_t sel_outer_mask = 0;  // select bits outside the cell
    std::uint64_t sel_outer_val = 0;
    std::uint64_t inner = 0;   // cell bits this member enumerates pairs over
    std::uint64_t forced = 0;  // cell bits pinned by transition selection
    double c = 1.0;
    cplx u, v;
    bool active = false;
  };
  std::array<Member, kMaxBatchMembers> md{};
  const std::size_t nm = g.members.size();
  std::uint64_t support = 0;
  bool any = false;
  for (std::size_t j = 0; j < nm; ++j) {
    const TermExp& e = exps_[g.members[reverse ? nm - 1 - j : j]];
    const TermKernel& k = e.kernel();
    if ((k.select_val & ~dim_mask) != 0) continue;  // never selected
    const double habs = std::abs(e.h0());
    if (habs == 0.0) continue;  // coupling cancelled: identity
    Member& m = md[j];
    const double sn = std::sin(dt * habs);
    const cplx unit = e.h0() / habs;
    m.c = std::cos(dt * habs);
    m.u = cplx(0.0, -sn) * unit;
    m.v = cplx(0.0, -sn) * std::conj(unit);
    m.flip = k.flip;
    m.sign = k.sign_mask;
    // The join rule keeps every member's select/flip support out of the
    // other members' flips, so the non-flip select bits live outside the
    // cell and test once per cell; flip-coincident select bits (transition
    // factors) pin their cell bits instead.
    m.sel_outer_mask = k.select_mask & ~k.flip;
    m.sel_outer_val = k.select_val & ~k.flip;
    const std::uint64_t pivot =
        e.pair_in_sel() ? (k.flip & (~k.flip + 1)) : 0;
    m.inner = g.flip_union & ~k.select_mask & ~pivot;
    m.forced = k.select_val & k.flip;
    m.active = true;
    any = true;
    support |= k.flip | k.select_mask | k.sign_mask;
  }
  if (!any) return;

  // Cells are orbits of the combined flip masks extended by a contiguous
  // low-bit run outside every member's support: every rotation of the batch
  // reads and writes only within one cell, so cells parallelize race-free
  // and the traversal touches each amplitude's cache line once.
  const int worker_bits =
      std::bit_width(static_cast<unsigned>(num_threads() - 1));
  const int cell_cap =
      std::clamp(std::countr_zero(x.size()) - kCellsPerWorkerBits -
                     worker_bits,
                 kMinBatchCellBits, kMaxBatchCellBits);
  std::uint64_t run_mask =
      trailing_run_mask(dim_mask & ~support & ~g.flip_union);
  int run_bits = std::popcount(run_mask);
  const int flip_bits = std::popcount(g.flip_union);
  if (run_bits > cell_cap - flip_bits) {
    run_bits = std::max(0, cell_cap - flip_bits);
    run_mask = (std::uint64_t{1} << run_bits) - 1;
  }
  const std::size_t run = std::size_t{1} << run_bits;
  const std::uint64_t outer_mask = dim_mask & ~g.flip_union & ~run_mask;
  const std::size_t cells = std::size_t{1} << std::popcount(outer_mask);
  const int cell_bits = flip_bits + run_bits;
  // Short runs rotate inline (same scalar formulas as TermExp's fallback
  // walk): a per-pair indirect kernel call would dominate the arithmetic.
  const bool wide = run_bits >= kMinRunBits;
  const simd::Kernels& kn = simd::active();
  parallel_for(
      cells,
      [&](std::size_t c0, std::size_t c1, int) {
        std::uint64_t outer = scatter_bits(c0, outer_mask);
        for (std::size_t ci = c0; ci < c1; ++ci) {
          for (std::size_t j = 0; j < nm; ++j) {
            const Member& m = md[j];
            if (!m.active) continue;
            if ((outer & m.sel_outer_mask) != m.sel_outer_val) continue;
            std::uint64_t isub = 0;
            do {
              const std::uint64_t s = outer | isub | m.forced;
              const bool neg = std::popcount(m.sign & s) & 1;
              const cplx u = neg ? -m.u : m.u;
              const cplx v = neg ? -m.v : m.v;
              cplx* a = x.data() + s;
              cplx* b = x.data() + (s ^ m.flip);
              if (wide) {
                kn.pair_rot(a, b, run, m.c, u, v);
              } else {
                for (std::size_t r = 0; r < run; ++r) {
                  const cplx xa = a[r], xb = b[r];
                  a[r] = m.c * xa + v * xb;
                  b[r] = u * xa + m.c * xb;
                }
              }
              isub = (isub - m.inner) & m.inner;
            } while (isub != 0);
          }
          outer = (outer - outer_mask) & outer_mask;
        }
      },
      std::max<std::size_t>(1, kParallelGrain >> cell_bits));
}

double TrotterEvolver::step_traffic_bytes(int order) const {
  const double dim = std::ldexp(1.0, static_cast<int>(n_));
  double sweep = 0.0;
  for (const Group& g : groups_) {
    switch (g.kind) {
      case Group::Kind::diagonal:
        // One full pass: amplitude read + write (32 B) + phase read (16 B).
        sweep += dim * 48.0;
        break;
      case Group::Kind::batch: {
        // One cell traversal; intra-cell reuse moves each touched amplitude
        // through DRAM once (read + write), bounded by the full vector.
        double amps = 0.0;
        for (std::size_t m : g.members) {
          const TermKernel& k = exps_[m].kernel();
          amps += std::ldexp(
              2.0, static_cast<int>(n_) - std::popcount(k.select_mask) -
                       (exps_[m].pair_in_sel() ? 1 : 0));
        }
        sweep += std::min(amps, dim) * 32.0;
        break;
      }
      case Group::Kind::single: {
        const TermExp& e = exps_[g.members[0]];
        const double cov =
            std::ldexp(1.0, static_cast<int>(n_) -
                                std::popcount(e.kernel().select_mask));
        // Diagonal: selected amplitudes read + written. Off-diagonal: both
        // pair amplitudes read + written per enumerated pair.
        sweep += e.diagonal() ? cov * 32.0
                              : (e.pair_in_sel() ? cov / 2.0 : cov) * 64.0;
        break;
      }
    }
  }
  return (order == 2 ? 2.0 : 1.0) * sweep;
}

void TrotterEvolver::step(std::span<cplx> x, double dt, int order) const {
  if (x.size() != (std::size_t{1} << n_))
    throw std::invalid_argument("TrotterEvolver::step: size mismatch");
  GECOS_SPAN("trotter.step");
  if (telemetry::metrics_enabled()) {
    const std::uint64_t sweeps =
        static_cast<std::uint64_t>(groups_.size()) * (order == 2 ? 2 : 1);
    telemetry::count(telemetry::Counter::kernel_sweeps, sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, x.size());
    telemetry::count(telemetry::Counter::bytes_moved,
                     static_cast<std::uint64_t>(step_traffic_bytes(order)));
  }
  if (order == 1) {
    for (const Group& g : groups_) apply_group(g, dt, x, false);
  } else if (order == 2) {
    for (const Group& g : groups_) apply_group(g, dt / 2, x, false);
    for (std::size_t i = groups_.size(); i-- > 0;)
      apply_group(groups_[i], dt / 2, x, true);
  } else {
    throw std::invalid_argument("TrotterEvolver::step: order must be 1 or 2");
  }
}

void TrotterEvolver::step(StateVector& x, double dt, int order) const {
  step(x.amps(), dt, order);
}

void TrotterEvolver::evolve(std::span<cplx> x, double t, int steps,
                            int order) const {
  if (steps < 1)
    throw std::invalid_argument("TrotterEvolver::evolve: steps must be >= 1");
  const double dt = t / steps;
  for (int i = 0; i < steps; ++i) step(x, dt, order);
}

void TrotterEvolver::evolve(StateVector& x, double t, int steps,
                            int order) const {
  evolve(x.amps(), t, steps, order);
}

}  // namespace gecos
