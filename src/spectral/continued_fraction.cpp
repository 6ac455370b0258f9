#include "spectral/continued_fraction.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/blas1.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace gecos {

SpectralFunction::SpectralFunction(const LinearOperator& h,
                                   SpectralFunctionOptions opts)
    : op_(h),
      opts_(opts),
      dim_(h.dim()),
      cap_(std::min(opts.max_moments, h.dim())),
      basis_(h.dim(), std::min(opts.max_moments, h.dim()) + 1) {
  if (dim_ < 2)
    throw std::invalid_argument(
        "SpectralFunction: operator dimension must be >= 2");
  if (opts.max_moments == 0)
    throw std::invalid_argument("SpectralFunction: max_moments must be >= 1");
  alpha_.resize(cap_);
  beta_.resize(cap_ > 0 ? cap_ - 1 : 0);
}

std::size_t SpectralFunction::build(std::span<const cplx> phi) {
  if (phi.size() != dim_)
    throw std::invalid_argument("SpectralFunction::build: dimension mismatch");
  const double nrm = vec_norm(phi);
  if (nrm == 0.0)
    throw std::invalid_argument("SpectralFunction::build: zero probe state");
  weight_ = nrm * nrm;

  vec_copy(basis_.vec(0), phi);
  vec_scale(basis_.vec(0), cplx(1.0 / nrm));

  GECOS_SPAN("spectral.cf.build");
  const std::uint64_t t0 = opts_.progress ? telemetry::now_ns() : 0;
  m_ = 0;
  for (std::size_t j = 0; j < cap_; ++j) {
    const std::span<const cplx> vj = basis_.vec(j);
    const std::span<cplx> w = basis_.vec(j + 1);
    vec_fill(w, cplx(0.0));
    op_.apply_add(vj, w, cplx(1.0));
    alpha_[j] = vec_dot(vj, w).real();
    // Full two-pass reorthogonalization against the whole live basis: the
    // three-term recurrence would drift at exactly the depths where the
    // continued fraction starts resolving interior structure.
    basis_.orthogonalize(w, j + 1);
    m_ = j + 1;
    if (opts_.progress) {
      telemetry::ProgressEvent ev;
      ev.phase = "spectral.cf";
      ev.iteration = m_;
      ev.total = cap_;
      ev.matvecs = m_;  // one apply per moment
      ev.elapsed_s = static_cast<double>(telemetry::now_ns() - t0) * 1e-9;
      ev.eta_s = ev.elapsed_s / static_cast<double>(m_) *
                 static_cast<double>(cap_ - m_);
      opts_.progress(ev);
    }
    if (j + 1 == cap_) break;
    const double b = vec_norm(w);
    if (b <= opts_.breakdown_tol * nrm) break;  // invariant subspace: exact
    beta_[j] = b;
    vec_scale(w, cplx(1.0 / b));
  }
  return m_;
}

std::size_t SpectralFunction::build(const LinearOperator& b,
                                    std::span<const cplx> psi) {
  if (b.dim() != dim_)
    throw std::invalid_argument(
        "SpectralFunction::build: probe operator dimension mismatch");
  if (psi.size() != dim_)
    throw std::invalid_argument("SpectralFunction::build: dimension mismatch");
  if (scratch_.size() != dim_) scratch_.resize(dim_);
  b.apply(psi, scratch_);
  return build(scratch_);
}

cplx SpectralFunction::greens(cplx z) const {
  if (m_ == 0)
    throw std::invalid_argument("SpectralFunction::greens: no build yet");
  // Bottom-up: f_j = num_j / (z - a_j - f_{j+1}) with num_0 = 1 and
  // num_j = b_{j-1}^2, so the final f_0 is G(z) itself.
  cplx f(0.0);
  for (std::size_t j = m_; j-- > 0;) {
    const double num = j > 0 ? beta_[j - 1] * beta_[j - 1] : 1.0;
    f = num / (z - alpha_[j] - f);
  }
  return weight_ * f;
}

double SpectralFunction::evaluate_at(double omega, double eta) const {
  return -greens(cplx(omega, eta)).imag() / M_PI;
}

void SpectralFunction::evaluate(std::span<const double> omega, double eta,
                                std::span<double> out) const {
  if (omega.size() != out.size())
    throw std::invalid_argument(
        "SpectralFunction::evaluate: grid/output size mismatch");
  for (std::size_t i = 0; i < omega.size(); ++i)
    out[i] = evaluate_at(omega[i], eta);
}

}  // namespace gecos
