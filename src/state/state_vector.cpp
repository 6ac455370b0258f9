#include "state/state_vector.hpp"
#include "linalg/blas1.hpp"
#include "ops/scb_sum.hpp"
#include "util/error.hpp"

#include <random>
#include <stdexcept>
#include <string>

namespace gecos {

StateVector::StateVector(std::size_t n_qubits) : n_(n_qubits) {
  // n_qubits = 0 is API misuse (invalid_argument, as ever); a too-large
  // count is a resource condition and gets the structured taxonomy — the
  // requested dimension in the message, never shift-overflow UB or a raw
  // bad_alloc escaping to the caller.
  if (n_qubits < 1)
    throw std::invalid_argument("StateVector: need n_qubits >= 1");
  if (n_qubits > 30)
    throw Error(ErrorKind::dim_mismatch,
                "StateVector: n_qubits = " + std::to_string(n_qubits) +
                    " exceeds the 30-qubit limit (16 * 2^n bytes must stay "
                    "addressable)");
  try {
    data_.assign(std::size_t{1} << n_qubits, cplx(0.0));
  } catch (const std::bad_alloc&) {
    throw Error(ErrorKind::dim_mismatch,
                "StateVector: allocation of " +
                    std::to_string((std::size_t{1} << n_qubits) *
                                   sizeof(cplx)) +
                    " bytes failed for n_qubits = " +
                    std::to_string(n_qubits));
  }
  data_[0] = cplx(1.0);
}

StateVector StateVector::basis(std::size_t n_qubits, std::uint64_t index) {
  StateVector s(n_qubits);
  if (index >= s.dim())
    throw std::invalid_argument("StateVector::basis: index out of range");
  s.data_[0] = cplx(0.0);
  s.data_[index] = cplx(1.0);
  return s;
}

StateVector StateVector::product(std::size_t n_qubits, std::uint64_t bits) {
  return basis(n_qubits, bits);
}

StateVector StateVector::random(std::size_t n_qubits, std::uint64_t seed) {
  StateVector s(n_qubits);
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  std::normal_distribution<double> g;
  for (cplx& a : s.data_) a = cplx(g(rng), g(rng));
  s.normalize();
  return s;
}

double StateVector::norm() const { return vec_norm(data_); }

void StateVector::normalize() {
  const double n = norm();
  if (n == 0.0)
    throw std::invalid_argument("StateVector::normalize: zero vector");
  vec_scale(amps(), cplx(1.0 / n));
}

cplx StateVector::inner(const StateVector& o) const {
  if (dim() != o.dim())
    throw std::invalid_argument("StateVector::inner: size mismatch");
  return vec_dot(data_, o.data_);
}

double StateVector::max_abs_diff(const StateVector& o) const {
  if (dim() != o.dim())
    throw std::invalid_argument("StateVector::max_abs_diff: size mismatch");
  return vec_max_abs_diff(data_, o.data_);
}

AlignedVec& StateVector::scratch() const {
  if (scratch_.size() != data_.size()) scratch_.resize(data_.size());
  return scratch_;
}

void StateVector::apply(const LinearOperator& op) {
  op.apply_inplace(amps(), scratch());
}

cplx StateVector::expectation(const LinearOperator& op) const {
  AlignedVec& s = scratch();
  op.apply(data_, s);
  return vec_dot(data_, s);
}

cplx StateVector::expectation(const ScbSum& h) const {
  return h.expectation(data_);
}

}  // namespace gecos
