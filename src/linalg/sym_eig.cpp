#include "linalg/sym_eig.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <string>

#include "util/error.hpp"

namespace gecos {

namespace {

/// Sorts ws.d ascending and permutes the columns of ws.z to match, using
/// ws.tmp as scratch (insertion sort: m is small and the Ritz values of a
/// converging Krylov run arrive nearly sorted).
void sort_pairs(std::size_t m, SymEigWorkspace& ws) {
  for (std::size_t i = 1; i < m; ++i) {
    const double di = ws.d[i];
    for (std::size_t r = 0; r < m; ++r) ws.tmp[r] = ws.z[r * m + i];
    std::size_t j = i;
    while (j > 0 && ws.d[j - 1] > di) {
      ws.d[j] = ws.d[j - 1];
      for (std::size_t r = 0; r < m; ++r) ws.z[r * m + j] = ws.z[r * m + j - 1];
      --j;
    }
    ws.d[j] = di;
    for (std::size_t r = 0; r < m; ++r) ws.z[r * m + j] = ws.tmp[r];
  }
}

}  // namespace

void SymEigWorkspace::reserve(std::size_t m) {
  if (z.size() < m * m) z.resize(m * m);
  if (d.size() < m) d.resize(m);
  if (e.size() < m) e.resize(m);
  if (tmp.size() < 2 * m) tmp.resize(2 * m);
}

void eigh_tridiag(std::span<const double> alpha, std::span<const double> beta,
                  std::size_t m, SymEigWorkspace& ws) {
  assert(alpha.size() >= m && (m == 0 || beta.size() >= m - 1));
  ws.reserve(m);
  if (m == 0) return;
  std::copy(alpha.begin(), alpha.begin() + static_cast<std::ptrdiff_t>(m),
            ws.d.begin());
  if (m > 1)
    std::copy(beta.begin(), beta.begin() + static_cast<std::ptrdiff_t>(m - 1),
              ws.e.begin());
  ws.e[m - 1] = 0.0;
  std::fill(ws.z.begin(), ws.z.begin() + static_cast<std::ptrdiff_t>(m * m),
            0.0);
  for (std::size_t i = 0; i < m; ++i) ws.z[i * m + i] = 1.0;
  double* d = ws.d.data();
  double* e = ws.e.data();

  // Implicit-shift QL: for each leading index l, chase the off-diagonal to
  // zero with Givens rotations driven by a Wilkinson-style shift, then
  // deflate. The rotation product is accumulated into ws.z.
  for (std::size_t l = 0; l < m; ++l) {
    for (int iter = 0;; ++iter) {
      std::size_t split = l;
      while (split + 1 < m) {
        const double dd = std::abs(d[split]) + std::abs(d[split + 1]);
        if (std::abs(e[split]) <= 1e-16 * dd) break;
        ++split;
      }
      if (split == l) break;
      if (iter >= 50)
        throw Error(ErrorKind::not_converged,
                    "eigh_tridiag: QL off-diagonal residual " +
                        std::to_string(std::abs(e[l])) +
                        " after 50 shifts at eigenvalue index " +
                        std::to_string(l) + " (m = " + std::to_string(m) +
                        ")");
      // Shift from the 2x2 trailing block at l.
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[split] - d[l] + e[l] / (g + (g >= 0 ? std::abs(r) : -std::abs(r)));
      double s = 1.0, c = 1.0, p = 0.0;
      bool underflow = false;  // rotation chain hit an exact zero: re-split
      for (std::size_t i = split; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[split] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        for (std::size_t k = 0; k < m; ++k) {
          f = ws.z[k * m + i + 1];
          ws.z[k * m + i + 1] = s * ws.z[k * m + i] + c * f;
          ws.z[k * m + i] = c * ws.z[k * m + i] - s * f;
        }
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[split] = 0.0;
    }
  }
  sort_pairs(m, ws);
}

void tridiagonalize(std::span<double> a, std::size_t n,
                    std::span<double> alpha, std::span<double> beta) {
  assert(a.size() >= n * n && alpha.size() >= n &&
         (n == 0 || beta.size() >= n - 1));
  if (n == 0) return;
  // Row r (n-1 down to 1) is reduced by P_r = I - v v^T / h on indices
  // 0..r-1 with P_r x = beta e_{r-1}, x = A[r][0..r-1]. v is kept in row r
  // (columns 0..r-1, no longer read by the reduction) and h on the
  // diagonal once alpha[r] is taken; h = 0 marks "no reflector".
  for (std::size_t r = n; r-- > 1;) {
    double* x = &a[r * n];
    double off = 0.0;  // largest entry left of the sub-diagonal
    for (std::size_t i = 0; i + 1 < r; ++i) off = std::max(off, std::abs(x[i]));
    double h = 0.0;
    if (off == 0.0) {
      beta[r - 1] = x[r - 1];
    } else {
      // Scaled so tiny borders neither underflow nor lose the reflector.
      const double scale = std::max(off, std::abs(x[r - 1]));
      double ss = 0.0;
      for (std::size_t i = 0; i < r; ++i) {
        x[i] /= scale;
        ss += x[i] * x[i];
      }
      const double sigma = std::copysign(std::sqrt(ss), x[r - 1]);
      x[r - 1] += sigma;
      h = sigma * x[r - 1];  // v^T v / 2
      beta[r - 1] = -sigma * scale;
      // A <- P A P on the leading r x r block: A - v q^T - q v^T with
      // p = A v / h and q = p - (v^T p / 2h) v, staged in column r above
      // the diagonal, which the reduction never reads again.
      double vp = 0.0;
      for (std::size_t i = 0; i < r; ++i) {
        double s = 0.0;
        for (std::size_t c = 0; c < r; ++c) s += a[i * n + c] * x[c];
        a[i * n + r] = s / h;
        vp += x[i] * a[i * n + r];
      }
      const double kk = vp / (2.0 * h);
      for (std::size_t i = 0; i < r; ++i) a[i * n + r] -= kk * x[i];
      for (std::size_t i = 0; i < r; ++i)
        for (std::size_t c = 0; c < r; ++c)
          a[i * n + c] -= x[i] * a[c * n + r] + a[i * n + r] * x[c];
    }
    alpha[r] = a[r * n + r];
    a[r * n + r] = h;
  }
  alpha[0] = a[0];

  // Q = P_{n-1} ... P_2, accumulated in place innermost first: before step
  // r the leading r x r block holds P_{r-1} ... P_2 (index r-1 padded as
  // identity) and row r still holds v_r.
  a[0] = 1.0;
  for (std::size_t r = 1; r < n; ++r) {
    const double* v = &a[r * n];
    const double h = a[r * n + r];
    for (std::size_t i = 0; i < r; ++i) a[i * n + r] = 0.0;
    if (h != 0.0) {
      for (std::size_t c = 0; c < r; ++c) {
        double s = 0.0;
        for (std::size_t i = 0; i < r; ++i) s += v[i] * a[i * n + c];
        s /= h;
        for (std::size_t i = 0; i < r; ++i) a[i * n + c] -= s * v[i];
      }
    }
    for (std::size_t c = 0; c < r; ++c) a[r * n + c] = 0.0;
    a[r * n + r] = 1.0;
  }
}

void expm_tridiag_e1(std::span<const double> alpha,
                     std::span<const double> beta, std::size_t m, cplx z,
                     std::span<cplx> out, SymEigWorkspace& ws) {
  assert(out.size() >= m);
  eigh_tridiag(alpha, beta, m, ws);
  // out_k = sum_j Z_kj exp(z d_j) Z_0j; the weights exp(z d_j) Z_0j are
  // staged in ws.tmp (reserved at 2m doubles = m complex slots).
  for (std::size_t j = 0; j < m; ++j) {
    const cplx wj = std::exp(z * ws.d[j]) * ws.z[j];  // row 0, column j
    ws.tmp[2 * j] = wj.real();
    ws.tmp[2 * j + 1] = wj.imag();
  }
  for (std::size_t k = 0; k < m; ++k) {
    cplx s = 0;
    for (std::size_t j = 0; j < m; ++j)
      s += ws.z[k * m + j] * cplx(ws.tmp[2 * j], ws.tmp[2 * j + 1]);
    out[k] = s;
  }
}

}  // namespace gecos
