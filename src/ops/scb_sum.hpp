// ScbSum: a complex combination of *bare* SCB products.
//
// This is the sum-of-terms layer above ScbTerm: a Hamiltonian (or any
// operator) kept symbolically in the Single Component Basis as
// sum_t coeff_t * (C_{n-1} (x) ... (x) C_0). Because the SCB closes under
// multiplication (scb_mul, paper Table IV), the product of two sums with T1
// and T2 terms has at most T1*T2 terms — each term-pair collapses per qubit
// to a *single* term instead of branching into 2^k Pauli strings. This
// closure is what the direct composition strategy of the paper (and the
// Jordan-Wigner layer in src/fermion/jordan_wigner.hpp) builds on; see
// DESIGN.md "SCB sums and normal ordering".
//
// Terms are bare products (no "+ h.c." flag): Hermiticity is represented
// explicitly by the presence of the adjoint term. hermitian_terms() gathers
// conjugate pairs back into "+ h.c." ScbTerms for the circuit builders.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ops/linear_op.hpp"
#include "ops/pauli.hpp"
#include "ops/scb.hpp"
#include "ops/term.hpp"

namespace gecos {

/// Compiled apply plan of an ScbSum — one diagonal pass plus one walk per
/// flip group (defined in scb_sum.cpp; see DESIGN.md "ScbSum compiled
/// plan").
struct ScbPlan;
/// Shared compiled-plan cache of an ScbSum: the plan plus the mutex that
/// guards its lazy rebuild (defined in scb_sum.cpp). Copies of an unmutated
/// sum — and cached Hamiltonians handed out by gecosd — share one, so one
/// compilation serves them all; after the rebuild the plan is immutable,
/// so any number of threads can apply concurrently.
struct ScbKernelCache;

/// Sparse complex combination of bare SCB products, keyed by the operator
/// word (qubit 0 first). A default-constructed sum adopts the qubit count of
/// the first word added; all words must share it. Deterministic iteration
/// (std::map over words); sizes stay polynomial for the workloads this layer
/// targets, so no packed representation is needed.
class ScbSum : public LinearOperator {
 public:
  /// Empty sum; adopts the qubit count of the first word added.
  ScbSum();
  /// Empty sum with a fixed qubit count.
  explicit ScbSum(std::size_t num_qubits);
  /// Copies SHARE the compiled-plan cache (the copy and the original have
  /// identical terms, so one compilation serves both until either mutates —
  /// a mutation detaches onto a fresh cache, see invalidate_kernels()).
  /// Moves steal the cache outright; the moved-from sum lazily recreates
  /// one if applied again.
  ScbSum(const ScbSum& o);
  ScbSum& operator=(const ScbSum& o);
  ScbSum(ScbSum&& o) noexcept;
  ScbSum& operator=(ScbSum&& o) noexcept;

  /// Qubit count (0 until fixed by construction or first add).
  std::size_t num_qubits() const { return num_qubits_; }
  /// LinearOperator qubit count (same as num_qubits()).
  std::size_t n_qubits() const override { return num_qubits_; }
  /// Number of live terms (words with |coeff| above the add tolerance).
  std::size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  /// Accumulates coeff * word; merges with an existing term for the same
  /// word and erases it when the merged coefficient cancels below tol.
  /// O(n log size). Throws on a qubit-count mismatch.
  void add(const std::vector<Scb>& word, cplx coeff, double tol = 1e-14);
  /// Adds a bare ScbTerm (its h.c. part too when add_hc is set).
  void add(const ScbTerm& term, double tol = 1e-14);
  /// Termwise sum: *this += o.
  void add(const ScbSum& o, double tol = 1e-14);

  /// Coefficient of a word (0 if absent). O(n log size).
  cplx coeff_of(const std::vector<Scb>& word) const;
  /// Deterministic word -> coefficient view (lexicographic in Scb order).
  const std::map<std::vector<Scb>, cplx>& terms() const { return terms_; }

  /// Termwise sum/difference and scalar scaling.
  ScbSum operator+(const ScbSum& o) const;
  ScbSum operator-(const ScbSum& o) const;
  ScbSum operator*(cplx s) const;
  /// Distributive product via the per-qubit Cayley closure: every pair of
  /// terms collapses to one term (or vanishes), so the result has at most
  /// size()*o.size() terms. O(size * o.size * n log) — no 2^k branching.
  ScbSum operator*(const ScbSum& o) const;

  /// Termwise adjoint: conj(coeff) * adjoint word (Sm <-> Sp).
  ScbSum adjoint() const;
  /// Commutator [*this, o] = *this*o - o**this (stays an ScbSum).
  ScbSum commutator(const ScbSum& o) const;
  /// True when every word's adjoint carries the conjugate coefficient.
  bool is_hermitian(double tol = 1e-12) const;

  /// Sum of |coeff| (LCU normalization of the bare-term sum).
  double one_norm() const;
  /// Drops terms with |coeff| <= tol.
  void prune(double tol = 1e-12);

  /// One bare ScbTerm (add_hc == false) per stored word.
  std::vector<ScbTerm> bare_terms() const;
  /// Gathers conjugate word pairs into "+ h.c." terms via gather_hermitian;
  /// throws if the sum is not Hermitian.
  std::vector<ScbTerm> hermitian_terms(double tol = 1e-12) const;

  /// Pauli expansion of the whole sum (2^k strings per term before
  /// cross-term cancellation) — the "usual strategy" representation this
  /// container exists to avoid.
  PauliSum to_pauli() const;
  /// Dense 2^n x 2^n matrix (verification only).
  Matrix to_matrix() const;

  /// Two-argument accumulate and overwriting apply from the base class.
  using LinearOperator::apply_add;
  /// y += scale * A x matrix-free through the compiled plan (ScbPlan): the
  /// diagonal pass, then one walk per flip group (x.size() == 2^n; x and y
  /// distinct buffers, asserted). The plan is cached between calls and
  /// rebuilt only after a mutation, so repeated application (the evolution
  /// loop, expectation values) does no per-call allocation; the rebuild is
  /// mutex-guarded, so concurrent apply_add/expectation on a shared *const*
  /// sum is safe (mutating concurrently with application is not, as
  /// usual). Bitwise identical across thread counts and SIMD tiers.
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const override;

  /// <x| A |x> read-only through the same plan: the diagonal pass sums
  /// d(s) |x_s|^2 and each group walk sums conj(x[s ^ flip]) * amp(s) *
  /// x[s] over its selected states (see TermKernel::expectation), groups in
  /// plan order — no output buffer, so StateVector::expectation(const
  /// ScbSum&) needs no scratch. Deterministic for a fixed thread count.
  /// Throws std::invalid_argument unless x.size() == 2^n, and
  /// Error{numerical_nan} when a read amplitude is NaN/Inf (the same guard
  /// as vec_dot).
  cplx expectation(std::span<const cplx> x) const;

  /// True when this sum and o currently share one compiled-plan cache
  /// (i.e. they are copies with no intervening mutation). Diagnostic for
  /// the cache tests and the serve artifact layer.
  bool shares_kernel_cache(const ScbSum& o) const {
    return kcache_ != nullptr && kcache_ == o.kcache_;
  }

  /// Deterministic " + "-joined text form ("0" for the empty sum).
  std::string str() const;

 private:
  void ensure_qubits(std::size_t n);
  // Mutation hook: sole owner -> mark the cache dirty in place; shared ->
  // detach onto a fresh cache so sums still holding the old kernels keep a
  // valid compilation of THEIR terms.
  void invalidate_kernels();
  // Returns the cache, recreating it when a move left kcache_ null.
  ScbKernelCache& ensure_cache() const;
  // The compiled plan, rebuilt under the cache mutex when dirty.
  const ScbPlan& plan() const;

  std::size_t num_qubits_ = 0;
  std::map<std::vector<Scb>, cplx> terms_;
  // Shared compiled-plan cache (see ScbKernelCache). Eagerly allocated by
  // the constructors and reseated by invalidate_kernels(), so on the const
  // apply path the pointer itself is stable and only the cache's own mutex
  // is needed for thread safety; null only transiently on a moved-from sum.
  // Mutable because caching never changes the observable value.
  mutable std::shared_ptr<ScbKernelCache> kcache_;
};

/// Scalar-from-the-left product s * m.
ScbSum operator*(cplx s, const ScbSum& m);

}  // namespace gecos
