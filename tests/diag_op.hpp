// Test-local diagonal LinearOperator: diag(d) on a d.size()-amplitude vector.
// Its spectrum (the entries) and eigenvectors (the basis states) are known
// exactly, which is what the Lanczos adversarial-spectrum and breakdown
// pins need.
#pragma once

#include <bit>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

#include "ops/linear_op.hpp"

namespace gecos::test {

/// diag(d) as a LinearOperator; d.size() must be a power of two.
class DiagonalOp : public LinearOperator {
 public:
  explicit DiagonalOp(std::vector<double> d) : d_(std::move(d)) {}

  std::size_t n_qubits() const override {
    return static_cast<std::size_t>(std::bit_width(d_.size()) - 1);
  }
  using LinearOperator::apply_add;
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const override {
    assert(x.data() != y.data() && x.size() == d_.size());
    for (std::size_t i = 0; i < d_.size(); ++i) y[i] += scale * d_[i] * x[i];
  }

 private:
  std::vector<double> d_;
};

}  // namespace gecos::test
