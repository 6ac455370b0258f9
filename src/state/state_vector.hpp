// StateVector: the owning statevector type of the simulation layer.
//
// Until this layer existed every workload juggled raw std::vector<cplx>
// buffers; a StateVector owns 2^n amplitudes in 64-byte-aligned storage
// (cache-line- and AVX-512-friendly for the parallel kernels), knows its
// qubit count, and carries the common state operations: basis/product/random
// construction, normalization, inner products, applying any LinearOperator,
// and expectation values. An ScbSum expectation walks the sum's compiled
// term kernels read-only, with no buffer at all; apply() and the
// expectation of any other LinearOperator go through a scratch buffer of
// the same alignment, kept inside the state and reused across calls. Either
// way repeated measurement in an evolution loop does no per-call
// allocation.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "ops/linear_op.hpp"

namespace gecos {

/// Sum-of-SCB-terms operator (ops/scb_sum.hpp); the scratch-free
/// expectation overload takes it.
class ScbSum;

/// Minimal 64-byte-aligned allocator so statevector storage starts on a
/// cache-line boundary (std::allocator only guarantees alignof(cplx) = 16).
template <typename T>
struct AlignedAllocator {
  /// Value type required of allocators.
  using value_type = T;
  /// Alignment of every allocation, in bytes.
  static constexpr std::size_t kAlign = 64;

  /// Default and converting constructors (stateless allocator).
  AlignedAllocator() = default;
  /// Rebinding copy from any instantiation.
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  /// Aligned allocation of n objects.
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  /// Matching deallocation.
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }
  /// All instances are interchangeable.
  bool operator==(const AlignedAllocator&) const { return true; }
};

/// Aligned amplitude buffer used by StateVector.
using AlignedVec = std::vector<cplx, AlignedAllocator<cplx>>;

/// Owning 2^n-amplitude quantum state with aligned storage.
class StateVector {
 public:
  /// |0...0> on n qubits. n = 0 throws std::invalid_argument (API misuse);
  /// n > 30 or a failed 16 * 2^n-byte allocation throws
  /// Error{dim_mismatch} carrying the requested size (resource condition).
  explicit StateVector(std::size_t n_qubits);

  /// Computational basis state |index> on n qubits.
  static StateVector basis(std::size_t n_qubits, std::uint64_t index);
  /// Product state with qubit q in |1> iff bit q of `bits` is set — the
  /// fermionic occupation-number states of the quench scenarios (identical
  /// to basis(); named for intent at call sites).
  static StateVector product(std::size_t n_qubits, std::uint64_t bits);
  /// Normalized Gaussian-random state from a fixed seed (reproducible).
  static StateVector random(std::size_t n_qubits, std::uint64_t seed);

  /// Qubit count and amplitude count (2^n).
  std::size_t n_qubits() const { return n_; }
  std::size_t dim() const { return data_.size(); }

  /// Amplitude views (basis index = bit pattern, qubit 0 least significant).
  std::span<cplx> amps() { return data_; }
  std::span<const cplx> amps() const { return data_; }
  /// Unchecked single-amplitude access.
  cplx& operator[](std::size_t i) { return data_[i]; }
  const cplx& operator[](std::size_t i) const { return data_[i]; }

  /// Euclidean norm and in-place normalization (throws on the zero vector).
  double norm() const;
  void normalize();

  /// Inner product <this|o> (conjugate-linear in *this).
  cplx inner(const StateVector& o) const;
  /// Max |a_i - o_i| against another state of the same size.
  double max_abs_diff(const StateVector& o) const;

  /// In-place x = A x through the internal scratch buffer (allocated once,
  /// reused across calls).
  void apply(const LinearOperator& op);
  /// <x| A |x> of a generic operator: apply into the internal scratch
  /// buffer, then dot. Real part is the physical expectation value when A
  /// is Hermitian. NOTE: const but not concurrency-safe on one object —
  /// apply() and this overload share the per-object scratch, so parallel
  /// measurement threads must each own a StateVector (copies are cheap
  /// relative to any 2^n workload).
  cplx expectation(const LinearOperator& op) const;
  /// <x| H |x> of an ScbSum without the scratch: ScbSum::expectation walks
  /// each compiled term read-only (one pass over the selected amplitudes
  /// instead of a zero-fill, an apply and a dot over a second 2^n buffer).
  /// Never sizes the scratch, so concurrent calls on one const state are
  /// safe. Throws Error{numerical_nan} on a non-finite read amplitude.
  cplx expectation(const ScbSum& h) const;

 private:
  AlignedVec& scratch() const;

  std::size_t n_ = 0;
  AlignedVec data_;
  mutable AlignedVec scratch_;  // lazily sized; cache, not value state
};

}  // namespace gecos
