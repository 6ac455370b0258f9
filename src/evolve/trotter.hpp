// Trotter-Suzuki time evolution with exact matrix-free SCB-term exponentials.
//
// The paper's direct strategy rests on one structural fact: a Hermitian SCB
// term H_t = c A + conj(c) A† (A a bare SCB product) acts on any basis state
// either as a phase (diagonal terms) or as a 2x2 rotation coupling |s> with
// |s ^ flip| — so exp(-i t H_t) has a CLOSED FORM touching only the
// 2^(n-k) selected amplitudes (k = #projector/transition factors), no matrix
// exponential and no scratch buffer. TermExp compiles one such exponential;
// TrotterEvolver chains them into first-order and second-order (Strang)
// product-formula steps over ScbSum::hermitian_terms(). Each step is a
// sequence of in-place parallel sweeps with zero per-step allocation. See
// DESIGN.md "Exact SCB-term exponentials" for the derivation.
//
// Fusion passes: a product-formula sweep is memory-bound — every term
// exponential traverses the statevector once — so TrotterEvolver schedules
// the term sequence into fused GROUPS at construction (only reordering
// across terms whose Hermitian parts symbolically commute, which leaves the
// operator product exactly unchanged):
//
//   * diagonal groups — all commuting diagonal exponentials collapse into
//     ONE precomputed phase table e^{-i dt A[s]} (the angle table sums the
//     members' +-d0 contributions; the phase table is cached per dt and
//     rebuilt allocation-free when dt changes) applied in a single sweep;
//   * rotation batches — pair rotations whose flips stay out of each
//     other's flip/select support are applied cell-by-cell (cells = orbits
//     of the combined flip masks times a contiguous run, L2-sized, so cells
//     never share amplitudes across parallel chunks) in one traversal
//     instead of one sweep per term. See DESIGN.md "Rotation-batch cells".
//
// See DESIGN.md "SIMD kernels & runtime dispatch" for the legality rules.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "evolve/evolver.hpp"
#include "ops/scb_sum.hpp"
#include "ops/term.hpp"
#include "state/state_vector.hpp"

namespace gecos {

/// Compiled exact exponential exp(-i t H) of one Hermitian ScbTerm
/// H = coeff * A (+ h.c. when the term's flag is set).
class TermExp {
 public:
  /// Compiles the term; throws std::invalid_argument unless
  /// term.is_valid_hamiltonian() (the exponential of a non-Hermitian term is
  /// not unitary and has no closed form here).
  explicit TermExp(const ScbTerm& term);

  /// Qubit count of the compiled term.
  std::size_t n_qubits() const { return kernel_.num_qubits; }

  /// x <- exp(-i t H) x in place, touching only the selected amplitudes.
  /// Parallelized over chunks of the selected-state walk; each basis-state
  /// pair is owned by exactly one chunk, so the sweep is race-free.
  void apply(double t, std::span<cplx> x) const;

  /// Compiled mask kernel of the bare product (coeff folded into base) —
  /// the structural data the fusion scheduler groups on.
  const TermKernel& kernel() const { return kernel_; }
  /// True when the term is diagonal (pure phase on selected states).
  bool diagonal() const { return diagonal_; }
  /// True when the h.c. partner state s ^ flip is itself selected.
  bool pair_in_sel() const { return pair_in_sel_; }
  /// Diagonal phase angle per sign (0 for off-diagonal terms).
  double d0() const { return d0_; }
  /// Off-diagonal pair coupling h(s) = sgn(s) * h0 (0 for diagonal terms).
  cplx h0() const { return h0_; }

 private:
  TermKernel kernel_;  // bare-product masks and base amplitude (coeff folded)
  bool add_hc_ = false;
  bool diagonal_ = false;    // flip == 0: pure phase on selected states
  bool pair_in_sel_ = false; // partner s ^ flip is itself a selected state
  double d0_ = 0.0;          // diagonal: phase angle magnitude per sign
  cplx h0_;                  // off-diagonal: block coupling h(s) = sgn(s)*h0
};

/// Product-formula propagator for a Hermitian ScbSum (an Evolver, so quench
/// workloads can swap it against the Krylov integrator).
class TrotterEvolver : public Evolver {
 public:
  /// Gathers h.hermitian_terms(tol) (throws if the sum is not Hermitian)
  /// and compiles one TermExp per term. `order` (1 or 2) is the
  /// product-formula order used by the two-argument Evolver entry points.
  /// `fuse` enables the construction-time fusion scheduler (see the file
  /// comment); fuse = false keeps one sweep per term in input order — the
  /// reference the fused path is benchmarked and tested against.
  explicit TrotterEvolver(const ScbSum& h, double tol = 1e-12, int order = 2,
                          bool fuse = true);

  /// Qubit count and number of compiled term exponentials.
  std::size_t n_qubits() const override { return n_; }
  std::size_t num_terms() const { return exps_.size(); }
  /// Scheduled fused groups per sweep (== num_terms() when fuse = false).
  std::size_t num_groups() const { return groups_.size(); }
  /// Whether the fusion scheduler was enabled at construction.
  bool fused() const { return fuse_; }
  /// Estimated bytes of statevector traffic per step at the given order
  /// (reads + writes of amplitudes and phase tables; the bench roofline
  /// model divides this by measured step time).
  double step_traffic_bytes(int order) const;

  /// Evolver step at the configured default order.
  void step(std::span<cplx> x, double dt) const override {
    step(x, dt, order_);
  }
  /// StateVector / evolve entry points of the Evolver base.
  using Evolver::evolve;
  using Evolver::step;

  /// One Trotter step x <- U(dt) x in place. order 1: prod_t exp(-i dt H_t);
  /// order 2 (Strang): forward half-sweep then reverse half-sweep, error
  /// O(dt^3) per step. Throws on any other order.
  void step(std::span<cplx> x, double dt, int order) const;
  /// StateVector overload of the explicit-order step().
  void step(StateVector& x, double dt, int order) const;

  /// steps equal Trotter steps of size t / steps: x <- U(dt)^steps x.
  /// Global error O(dt) for order 1, O(dt^2) for order 2.
  void evolve(std::span<cplx> x, double t, int steps, int order) const;
  /// StateVector overload of the explicit-order evolve().
  void evolve(StateVector& x, double t, int steps, int order) const;

 private:
  // One fused diagonal group: angle[s] sums the members' signed d0
  // contributions over the full dimension; phase caches e^{-i dt angle[s]}
  // for the last dt (both sized at construction, so steps never allocate —
  // a dt change refills in place). cached_dt guards the cache; phases are
  // mutable because caching does not change the evolver's value.
  struct FusedDiagonal {
    std::vector<double> angle;
    mutable std::vector<cplx> phase;
    mutable double cached_dt = 0.0;
    mutable bool phase_valid = false;
  };
  // One scheduled group of the term sequence (kind single = plain
  // TermExp::apply; diagonal = one phase-table sweep over diagonals_[
  // diag_index]; batch = disjoint-support rotations applied cell-by-cell).
  struct Group {
    enum class Kind { single, diagonal, batch };
    Kind kind = Kind::single;
    std::vector<std::size_t> members;  // indices into exps_, apply order
    std::uint64_t flip_union = 0;      // batch: union of member flips
    int diag_index = -1;               // diagonal: index into diagonals_
  };

  /// Builds groups_ (and diagonals_) from the compiled exponentials; the
  /// `terms` are the Hermitian terms the exponentials came from, used for
  /// the symbolic commutation tests that make reordering legal.
  void build_schedule(const std::vector<ScbTerm>& terms);
  /// Applies one scheduled group (members reversed when reverse, for the
  /// Strang back-sweep).
  void apply_group(const Group& g, double dt, std::span<cplx> x,
                   bool reverse) const;
  /// One phase-table sweep of a fused diagonal group (rebuilds the cached
  /// phases in place when dt differs from the cached one).
  void apply_fused_diagonal(const FusedDiagonal& fd, double dt,
                            std::span<cplx> x) const;
  /// One cell-parallel traversal applying every rotation of a batch group.
  void apply_batch(const Group& g, double dt, std::span<cplx> x,
                   bool reverse) const;

  std::size_t n_ = 0;
  int order_ = 2;
  bool fuse_ = true;
  std::vector<TermExp> exps_;
  std::vector<Group> groups_;
  std::vector<FusedDiagonal> diagonals_;
  // Guards the lazy per-dt phase-table rebuild so concurrent const steps
  // (same contract as ScbSum's kernel cache) stay safe.
  mutable std::mutex phase_mutex_;
};

}  // namespace gecos
