// Small real-symmetric eigensolvers for projected Krylov problems.
//
// The Krylov layer (src/solver/) reduces every large Hermitian operator to a
// small symmetric tridiagonal matrix. A thick restart of Lanczos leaves an
// arrowhead block instead; tridiagonalize() returns it to tridiagonal form
// with an orthogonal factor that leaves the last index fixed, so one
// eigensolver — implicit-shift QL, eigh_tridiag — serves every projection.
// The exp(z*T)e1 evaluation the Krylov propagator needs sits on top of it.
// All routines work out of caller-owned storage (SymEigWorkspace for the
// eigensolver) so solver iterations allocate nothing after warm-up. Problem
// sizes are Krylov subspace dimensions (tens to a few hundred), so the
// O(m^3) dense work here is never the bottleneck next to a 2^n matvec.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/blas1.hpp"

namespace gecos {

/// Reusable scratch for the small symmetric eigensolvers. All buffers grow
/// monotonically (reserve() or first use) and are never shrunk, so repeated
/// solves of bounded size are allocation-free.
struct SymEigWorkspace {
  /// Pre-sizes every buffer for problems up to m x m.
  void reserve(std::size_t m);

  std::vector<double> z;    ///< m*m eigenvectors, row-major, column j = vec j
  std::vector<double> d;    ///< eigenvalues, ascending after a solve
  std::vector<double> e;    ///< off-diagonal scratch (QL)
  std::vector<double> tmp;  ///< permutation / coefficient scratch
};

/// Eigen-decomposition of a symmetric tridiagonal matrix with diagonal
/// `alpha` (size m) and off-diagonal `beta` (size m-1): implicit-shift QL
/// with eigenvector accumulation. Results: ws.d (ascending) and ws.z
/// (column j of the row-major m x m block is the eigenvector of ws.d[j]).
/// Allocation-free when ws was reserved for >= m.
/// Throws Error{not_converged} (with the stuck off-diagonal residual) when
/// 50 implicit shifts fail to deflate an eigenvalue.
void eigh_tridiag(std::span<const double> alpha, std::span<const double> beta,
                  std::size_t m, SymEigWorkspace& ws);

/// Householder reduction of the dense real-symmetric n x n matrix `a`
/// (row-major) to tridiagonal T = Q^T A Q, working up from the last row:
/// the reflector for row r acts on indices 0..r-1 only, so Q e_{n-1} =
/// e_{n-1} and the last basis vector is never rotated. A row that is
/// already reduced gets no reflector (a tridiagonal input returns Q = I).
/// Writes diag(T) to alpha (n entries) and T[i][i+1] to beta (n-1 entries;
/// signs are not normalized) and overwrites `a` with Q, row-major. Thick-
/// restart Lanczos feeds it the arrowhead diag(theta) bordered in its last
/// row; O(n^3), allocation-free.
void tridiagonalize(std::span<double> a, std::size_t n,
                    std::span<double> alpha, std::span<double> beta);

/// out = exp(z * T) e1 for the symmetric tridiagonal T given by alpha/beta
/// (sizes m and m-1), any complex z (z = -i*dt: unitary propagation;
/// z = -dt: imaginary-time projection). Computed through eigh_tridiag:
/// out_k = sum_j z_kj exp(z d_j) z_0j. out must have size m.
void expm_tridiag_e1(std::span<const double> alpha,
                     std::span<const double> beta, std::size_t m, cplx z,
                     std::span<cplx> out, SymEigWorkspace& ws);

}  // namespace gecos
