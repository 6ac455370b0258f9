// Finite-temperature observables by thermal-pure-state sampling.
//
// A thermal average <O>_beta = Tr(e^{-beta H} O) / Tr(e^{-beta H}) never
// needs the full spectrum: for a random normalized Gaussian state |r> the
// projected state |phi_r> = e^{-beta H / 2} |r> satisfies
//
//   E[ <phi_r|O|phi_r> ] = Tr(e^{-beta H} O) / D,
//
// so a handful of samples estimates the ratio with fluctuations that SHRINK
// exponentially with system size (the thermal-pure-quantum-state effect).
// The imaginary-time projection runs through KrylovEvolver::apply_expm with
// real z (the one caller of that path) in chunks of dbeta, renormalizing after
// each chunk and accumulating the log of the squared norm — the weight w_r =
// <r|e^{-beta H}|r> stays in log space, so large beta never overflows and the
// Boltzmann-dominated regime degrades gracefully into a ground-state
// projector. The estimator is the self-normalizing ratio sum_r w_r O_r / sum_r
// w_r with jackknife standard errors (the ratio's bias and variance are both
// handled by leave-one-out resampling). Sampling is seeded and the generator
// is re-seeded on every call, so results are bit-reproducible and independent
// of call order. All work buffers are preallocated at construction;
// expectation() is allocation-free after the first call warms the evolver.
// Runs unchanged on SectorOperator inputs. See DESIGN.md "Spectral & thermal
// workloads".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ops/linear_op.hpp"
#include "solver/krylov_evolve.hpp"
#include "state/state_vector.hpp"
#include "telemetry/progress.hpp"

namespace gecos {

/// Tuning knobs for the thermal-pure-state sampler.
struct ThermalOptions {
  std::size_t num_samples = 16;   ///< random thermal states (>= 2 for errors)
  std::uint64_t seed = 20260808;  ///< sample seed; re-seeded every call
  /// Imaginary-time chunk: e^{-beta H / 2} is applied in ceil((beta/2) /
  /// dbeta) renormalized Krylov steps (must be > 0).
  double dbeta = 0.25;
  std::size_t max_subspace = 24;  ///< Krylov cap of the projection evolver
  double krylov_tol = 1e-12;      ///< per-chunk projection error budget
  /// Optional ProgressSink (phase "spectral.thermal"): called once per
  /// thermal sample during expectation() with the sample index and the
  /// matvecs spent so far. Empty disables reporting.
  telemetry::ProgressFn progress;
};

/// One thermal estimate with its sampling uncertainty.
struct ThermalResult {
  double value = 0.0;          ///< ratio estimate of <O>_beta
  double std_error = 0.0;      ///< jackknife standard error of the ratio
  double log_z_over_dim = 0.0; ///< log(Z(beta)/D) from the sample weights
  std::size_t samples = 0;     ///< random states drawn
  std::size_t matvecs = 0;     ///< operator applications spent (H and O)
};

/// Stochastic finite-temperature expectation values through e^{-beta H/2}.
class ThermalSampler {
 public:
  /// Captures the Hamiltonian by reference (it must outlive the sampler),
  /// builds the internal Krylov projection evolver and preallocates all
  /// per-sample buffers. Throws std::invalid_argument on num_samples < 2,
  /// dbeta <= 0 or operator dimension < 2.
  explicit ThermalSampler(const LinearOperator& h, ThermalOptions opts = {});

  /// <O>_beta with jackknife error bars. O must share the Hamiltonian's
  /// dimension and beta must be >= 0 (std::invalid_argument otherwise).
  /// Re-seeds the generator, so equal (O, beta, options) give bit-identical
  /// results regardless of call history. Allocation-free after the first
  /// call.
  ThermalResult expectation(const LinearOperator& o, double beta);
  /// Energy <H>_beta — expectation() with the Hamiltonian as the observable.
  ThermalResult energy(double beta);

 private:
  const LinearOperator& op_;
  ThermalOptions opts_;
  std::size_t dim_ = 0;
  KrylovEvolver evolver_;            // e^{-dbeta H} chunk applier
  AlignedVec psi_, scratch_;         // thermal state and O-apply buffer
  std::vector<double> o_vals_, logw_;  // per-sample observable and log-weight
};

}  // namespace gecos
