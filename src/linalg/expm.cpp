#include "linalg/expm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

namespace gecos {

EigenSystem eigh(const Matrix& h, double tol, int max_sweeps) {
  assert(h.rows() == h.cols());
  const std::size_t n = h.rows();
  Matrix a = h;
  Matrix v = Matrix::identity(n);

  auto off_mass = [&]() {
    double s = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += std::norm(a(i, j));
    return std::sqrt(s);
  };

  const double scale = std::max(h.norm_max(), 1e-300);
  for (int sweep = 0; sweep < max_sweeps && off_mass() > tol * scale; ++sweep) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const cplx apq = a(p, q);
        const double mag = std::abs(apq);
        if (mag < 1e-300) continue;
        // Complex Jacobi rotation zeroing a(p,q):
        //   J acts on the (p,q) plane, J = [[c, s*e^{i phi}], [-s*e^{-i phi}, c]].
        const cplx phase = apq / mag;
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        const double tau = (aqq - app) / (2.0 * mag);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        const cplx sp = s * phase;          // J(p,q)
        const cplx sm = -s * std::conj(phase);  // J(q,p)
        // A <- J^dagger A J. Update columns p,q then rows p,q.
        for (std::size_t k = 0; k < n; ++k) {
          const cplx akp = a(k, p), akq = a(k, q);
          a(k, p) = akp * c + akq * sm;
          a(k, q) = akp * sp + akq * c;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const cplx apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk + std::conj(sm) * aqk;
          a(q, k) = std::conj(sp) * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const cplx vkp = v(k, p), vkq = v(k, q);
          v(k, p) = vkp * c + vkq * sm;
          v(k, q) = vkp * sp + vkq * c;
        }
      }
    }
  }

  EigenSystem es;
  es.eigenvalues.resize(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i).real();
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] < diag[y]; });
  es.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    es.eigenvalues[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      es.eigenvectors(i, j) = v(i, order[j]);
  }
  return es;
}

Matrix expm_hermitian(const Matrix& h, double t) {
  const EigenSystem es = eigh(h);
  const std::size_t n = h.rows();
  Matrix r(n, n);
  // r = V diag(e^{i t w}) V^dagger
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      cplx acc = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const cplx ph = std::polar(1.0, t * es.eigenvalues[k]);
        acc += es.eigenvectors(i, k) * ph * std::conj(es.eigenvectors(j, k));
      }
      r(i, j) = acc;
    }
  return r;
}

Matrix expm(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  double nrm = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0;
    for (std::size_t j = 0; j < n; ++j) row += std::abs(a(i, j));
    nrm = std::max(nrm, row);
  }
  int k = 0;
  while (nrm > 0.5) {
    nrm /= 2;
    ++k;
  }
  Matrix s = a * cplx(std::ldexp(1.0, -k));
  Matrix result = Matrix::identity(n);
  Matrix power = Matrix::identity(n);
  // One scratch buffer serves every product: the Taylor loop ping-pongs
  // power <-> scratch and the squaring loop result <-> scratch, so the 18 + k
  // multiplies allocate exactly once instead of once per iteration.
  Matrix scratch(n, n);
  double fact = 1.0;
  for (int term = 1; term <= 18; ++term) {
    Matrix::mul_into(scratch, power, s);
    std::swap(power, scratch);
    fact *= term;
    result.add_scaled(power, cplx(1.0 / fact));
  }
  for (int i = 0; i < k; ++i) {
    Matrix::mul_into(scratch, result, result);
    std::swap(result, scratch);
  }
  return result;
}

}  // namespace gecos
