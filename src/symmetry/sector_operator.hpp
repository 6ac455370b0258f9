// SectorOperator: a number-conserving Hamiltonian restricted to a sector.
//
// Takes a symbolic sum (ScbSum or PauliSum) that commutes with every species
// number operator of a SectorBasis and applies it *within* the sector: the
// LinearOperator dim() is the sector dimension, so Lanczos, KrylovEvolver
// and the spectral estimators run on sector vectors unchanged — same
// interface, exponentially fewer amplitudes.
//
// Construction first rewrites the sum into *transition-canonical* form:
// every X/Y factor branches into the transition family (X = s + s+,
// Y = i s+ - i s; 2^f words per term with f X/Y factors, f = 0 for every
// Jordan-Wigner-derived fermionic sum), and identical words merge. This
// matters because the SCB spans the single-qubit operator space with eight
// elements, so a sum can be number-conserving as an OPERATOR while no
// individual word is (XX + YY hopping); after canonicalization each word
// moves a definite particle count per species, branches that cancel
// (s+ s+ of XX against YY) vanish exactly, and conservation becomes a
// per-word test: any surviving word with a nonzero species number change
// makes construction throw. (Sums that conserve only through diagonal
// identities like I = n + m split across words are rejected conservatively
// — none of the builders in this repo produce such forms.)
//
// Each surviving word then compiles into a mask kernel (the
// flip/select/sign decomposition of ops/term.hpp's TermKernel), and the
// kernels compile once more into a row-major *gather form*: output rank t
// holds its fused diagonal d[t] (every flip-free word — the U and mu terms
// of a Hubbard Hamiltonian — summed at construction) plus one entry
// {source rank, coefficient index} per hop kernel that reaches t, stored in
// kernel order. Hop kernel j contributes (+-base_j) * x[rank(t ^ flip_j)]
// when the source configuration t ^ flip_j passes the kernel's selection
// test; the sign is folded into the index into a 2K-entry {+base, -base}
// coefficient table. Conservation guarantees every source lies in the
// sector.
//
// apply_add is one sweep over output ranks,
//   y[t] += scale * (d[t] x[t] + sum_e coef[e] x[src[e]]),
// parallelized over contiguous output-rank chunks: each chunk writes only
// its own rows (the library-wide output-partitioning rule), so results are
// bitwise deterministic for any thread count. Nothing allocates after
// construction. See DESIGN.md "Symmetry sectors".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ops/linear_op.hpp"
#include "ops/pauli.hpp"
#include "ops/scb_sum.hpp"
#include "symmetry/sector_basis.hpp"

namespace gecos {

/// Restriction of a number-conserving operator to a sector, compiled to
/// per-row gather lists.
class SectorOperator : public LinearOperator {
 public:
  /// Compiles the sum's bare terms into the sector gather form. Throws
  /// std::invalid_argument when the sum is empty, its qubit count differs
  /// from the basis, the transition-canonical conservation check finds a
  /// word with a nonzero species particle-number change, or the sector has
  /// 2^32 or more states (source ranks are 32-bit).
  SectorOperator(SectorBasis basis, const ScbSum& h);
  /// Same, from a Pauli-string sum (each string is an SCB word already).
  SectorOperator(SectorBasis basis, const PauliSum& h);

  /// The sector enumeration this operator is restricted to.
  const SectorBasis& basis() const { return basis_; }
  /// Full-space qubit count n of the underlying operator.
  std::size_t n_qubits() const override { return basis_.n_qubits(); }
  /// Sector dimension — the vector length apply_add works on (NOT 2^n).
  std::size_t dim() const override { return basis_.dim(); }
  /// Surviving transition-canonical words: hop kernels plus the diagonal
  /// words fused into the per-rank diagonal (X/Y factors branch at
  /// construction and canceling branches merge away, so this can differ
  /// from the input term count).
  std::size_t num_kernels() const { return num_kernels_; }
  /// Gather entries over all rows: the number of nonzero off-diagonal
  /// matrix elements of the sector-restricted operator.
  std::size_t num_entries() const { return entries_.size(); }
  /// Heap bytes of the compiled gather form (diagonal, row offsets, entries
  /// and coefficient table) — what a cache holding this operator pins.
  std::size_t layout_bytes() const;

  /// Two-argument accumulate and overwriting apply from the base class.
  using LinearOperator::apply_add;
  /// y += scale * (P H P) x over sector ranks (x.size() == dim(); x and y
  /// distinct buffers, asserted). One parallel sweep over output ranks,
  /// allocation-free and deterministic for any thread count.
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const override;

 private:
  /// One gather entry: the source rank and the index into coefs_ of its
  /// signed kernel coefficient.
  struct Entry {
    std::uint32_t src = 0;
    std::uint32_t coef = 0;
  };

  /// Shared constructor body: canonicalization + conservation check +
  /// kernel compilation + the two-pass gather-row build.
  void compile(const ScbSum& h);

  SectorBasis basis_;
  std::size_t num_kernels_ = 0;
  std::vector<cplx> diag_;              // fused diagonal, one per rank
  std::vector<cplx> coefs_;             // {+base_j, -base_j} per hop kernel
  std::vector<std::uint64_t> row_ptr_;  // dim + 1 offsets into entries_
  std::vector<Entry> entries_;          // per-row gather lists, kernel order
};

}  // namespace gecos
