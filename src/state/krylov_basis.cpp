#include "state/krylov_basis.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace gecos {

KrylovBasis::KrylovBasis(std::size_t dim, std::size_t capacity)
    : dim_(dim), capacity_(capacity) {
  if (dim == 0 || capacity == 0)
    throw std::invalid_argument("KrylovBasis: dim and capacity must be >= 1");
  if (dim > std::numeric_limits<std::size_t>::max() / sizeof(cplx) / capacity)
    throw Error(ErrorKind::dim_mismatch,
                "KrylovBasis: " + std::to_string(dim) + " x " +
                    std::to_string(capacity) +
                    " amplitudes overflow addressable memory");
  try {
    store_.assign(dim * capacity, cplx(0.0));
  } catch (const std::bad_alloc&) {
    throw Error(ErrorKind::dim_mismatch,
                "KrylovBasis: allocation of " +
                    std::to_string(dim * capacity * sizeof(cplx)) +
                    " bytes failed (dim " + std::to_string(dim) +
                    ", capacity " + std::to_string(capacity) + ")");
  }
}

void KrylovBasis::reset(std::size_t dim) {
  assert(dim >= 1 && dim * capacity_ <= store_.size() &&
         "KrylovBasis::reset: new dim must fit the backing allocation");
  dim_ = dim;
  std::fill(store_.begin(),
            store_.begin() + static_cast<std::ptrdiff_t>(dim_ * capacity_),
            cplx(0.0));
}

std::span<cplx> KrylovBasis::vec(std::size_t j) {
  assert(j < capacity_);
  return {store_.data() + j * dim_, dim_};
}

std::span<const cplx> KrylovBasis::vec(std::size_t j) const {
  assert(j < capacity_);
  return {store_.data() + j * dim_, dim_};
}

void KrylovBasis::orthogonalize(std::span<cplx> w, std::size_t count,
                                std::span<cplx> h, int passes) const {
  assert(w.size() == dim_ && count <= capacity_ &&
         (h.empty() || h.size() >= count));
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t j = 0; j < count; ++j) {
      const cplx c = vec_dot(vec(j), w);
      vec_axpy(w, -c, vec(j));
      if (!h.empty()) h[j] += c;
    }
  }
}

void KrylovBasis::accumulate(std::span<cplx> y, std::span<const cplx> coeffs,
                             std::size_t count) const {
  assert(y.size() == dim_ && count <= capacity_ && coeffs.size() >= count);
  for (std::size_t j = 0; j < count; ++j) vec_axpy(y, coeffs[j], vec(j));
}

}  // namespace gecos
