#include "symmetry/sector_operator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ops/term.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace gecos {

namespace {

/// Modeled bytes per apply_add (the bytes_moved telemetry): per output row
/// the diagonal, x[t], a read-modify-write of y[t] and one row offset (72 B);
/// per gather entry the entry itself and the gathered x[src] (24 B). The
/// 2K-entry coefficient table stays cache-resident and is not counted.
constexpr std::uint64_t kRowBytes = 72;
constexpr std::uint64_t kEntryBytes = 24;

/// One transition-canonical word as sector masks (see ops/term.hpp
/// TermKernel for the flip/select/sign decomposition). Canonical words have
/// every flipped bit select-constrained, so a selected source configuration
/// always maps to an in-sector target.
struct SectorKernel {
  std::uint64_t flip = 0;
  std::uint64_t select_mask = 0;
  std::uint64_t select_val = 0;
  std::uint64_t sign_mask = 0;
  cplx base;

  bool selects(std::uint64_t cfg) const {
    return (cfg & select_mask) == select_val;
  }
  bool negative(std::uint64_t cfg) const {
    return (std::popcount(cfg & sign_mask) & 1) != 0;
  }
};

/// Rows per block of the gather-row build.
constexpr std::size_t kBuildBlock = 512;

/// Runs body(first_rank, configs, n) over the sector in blocks of at most
/// kBuildBlock consecutive ranks, in parallel over contiguous rank chunks;
/// each chunk unranks once (config_at) and then steps with next_config.
/// Bodies run every kernel across a whole block, so each selection test
/// streams over consecutive configurations (vectorizable counts,
/// predictable branches) while the output stays row-major.
template <class Body>
void for_config_blocks(const SectorBasis& basis, Body&& body) {
  parallel_for(basis.dim(), [&](std::size_t lo, std::size_t hi, int) {
    std::uint64_t cfg[kBuildBlock];
    std::uint64_t c = basis.config_at(lo);
    for (std::size_t b = lo; b < hi; b += kBuildBlock) {
      const std::size_t n = std::min(kBuildBlock, hi - b);
      for (std::size_t i = 0; i < n; ++i, c = basis.next_config(c))
        cfg[i] = c;
      body(b, cfg, n);
    }
  });
}

/// Rewrites one SCB word into the transition-canonical family: every X/Y
/// factor branches into {s, s+} (X = s + s+, Y = i s+ - i s), all other
/// factors pass through. Accumulates the 2^f branch words (f = number of
/// X/Y factors) into `out`, where canceling branches of different input
/// words merge away exactly.
void canonicalize_word(const std::vector<Scb>& word, cplx coeff, ScbSum& out) {
  std::vector<std::size_t> xy;
  for (std::size_t q = 0; q < word.size(); ++q)
    if (word[q] == Scb::X || word[q] == Scb::Y) xy.push_back(q);
  // 2^f branches per word: physical number-conserving terms carry at most a
  // handful of X/Y factors (a hop is two), so an X/Y-heavy word signals a
  // non-conserving operator long before the expansion could blow up.
  if (xy.size() > 24)
    throw std::invalid_argument(
        "SectorOperator: word with > 24 X/Y factors cannot be "
        "canonicalized (and cannot conserve particle number)");
  std::vector<Scb> branch = word;
  for (std::uint64_t g = 0; g < (std::uint64_t{1} << xy.size()); ++g) {
    cplx c = coeff;
    for (std::size_t i = 0; i < xy.size(); ++i) {
      const bool raise = ((g >> i) & 1) != 0;
      branch[xy[i]] = raise ? Scb::Sp : Scb::Sm;
      if (word[xy[i]] == Scb::Y) c *= raise ? cplx(0.0, 1.0) : cplx(0.0, -1.0);
    }
    out.add(branch, c);
  }
}

}  // namespace

SectorOperator::SectorOperator(SectorBasis basis, const ScbSum& h)
    : basis_(std::move(basis)) {
  compile(h);
}

SectorOperator::SectorOperator(SectorBasis basis, const PauliSum& h)
    : basis_(std::move(basis)) {
  // Pauli strings are SCB words already ({I,X,Y,Z} is a subset of the
  // basis); route through an ScbSum so both constructors share the
  // canonicalization and the kernel compiler.
  ScbSum s(h.num_qubits());
  for (const auto& [str, coeff] : h.sorted_terms()) s.add(str.ops(), coeff);
  compile(s);
}

void SectorOperator::compile(const ScbSum& h) {
  if (h.empty())
    throw std::invalid_argument("SectorOperator: empty operator sum");
  if (h.num_qubits() != basis_.n_qubits())
    throw std::invalid_argument("SectorOperator: qubit-count mismatch");

  // Transition-canonical rewrite (see the header comment): after this,
  // every word moves a definite particle count per species.
  ScbSum canon(h.num_qubits());
  for (const auto& [word, coeff] : h.terms())
    canonicalize_word(word, coeff, canon);

  // Conservation check + compilation in one pass. Coefficients here are
  // exact +-1 / +-i multiples of the input coefficients and equal-magnitude
  // branches cancel exactly in floating point (ScbSum::add erases them at
  // its own 1e-14 merge tolerance), so the skip threshold is the same small
  // ABSOLUTE epsilon — scaling it by the sum's magnitude would silently
  // drop genuine small terms from sums with large coefficient disparity,
  // quietly compiling a different operator. Dirt above this threshold with
  // a nonzero species delta throws instead: loud beats wrong.
  const double tol = 1e-14;
  const auto species = basis_.species();
  std::vector<SectorKernel> diagonal, hops;
  for (const auto& [word, coeff] : canon.terms()) {
    if (std::abs(coeff) <= tol) continue;
    for (const SpeciesSector& s : species) {
      int delta = 0;
      for (std::size_t q = 0; q < word.size(); ++q) {
        if (!((s.mask >> q) & 1)) continue;
        if (word[q] == Scb::Sp) ++delta;
        else if (word[q] == Scb::Sm) --delta;
      }
      if (delta != 0)
        throw std::invalid_argument(
            "SectorOperator: operator does not conserve a species particle "
            "number (nonzero sector-changing component)");
    }
    const TermKernel tk(ScbTerm(coeff, word, false));
    const SectorKernel k{tk.flip, tk.select_mask, tk.select_val, tk.sign_mask,
                         tk.base};
    (k.flip == 0 ? diagonal : hops).push_back(k);
  }
  num_kernels_ = diagonal.size() + hops.size();
  if (num_kernels_ == 0)
    throw std::invalid_argument(
        "SectorOperator: operator vanishes in canonical form");
  // Same instrumentation site as ScbSum's kernel rebuild: every surviving
  // canonical word cost one TermKernel mask compilation.
  telemetry::count(telemetry::Counter::kernel_compiles, num_kernels_);

  const std::size_t d = basis_.dim();
  if (d > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument(
        "SectorOperator: sector dimension exceeds the 32-bit source-rank "
        "range of the gather form");
  for (const SectorKernel& k : hops) {
    coefs_.push_back(k.base);
    coefs_.push_back(-k.base);
  }

  // Gather rows in two parallel passes (see for_config_blocks). Pass 1
  // fuses the diagonal words into diag_ and counts each row's hop sources:
  // kernel j reaches row t from t ^ flip_j when that source passes the
  // kernel's selection test. A prefix sum turns the counts into offsets.
  diag_.assign(d, cplx(0.0));
  row_ptr_.assign(d + 1, 0);
  for_config_blocks(basis_, [&](std::size_t b, const std::uint64_t* cfg,
                                std::size_t n) {
    cplx* const dg = diag_.data() + b;
    for (const SectorKernel& k : diagonal)
      for (std::size_t i = 0; i < n; ++i)
        if (k.selects(cfg[i])) dg[i] += k.negative(cfg[i]) ? -k.base : k.base;
    std::uint64_t* const count = row_ptr_.data() + b + 1;
    for (const SectorKernel& k : hops)
      for (std::size_t i = 0; i < n; ++i)
        count[i] += k.selects(cfg[i] ^ k.flip);
  });
  std::partial_sum(row_ptr_.begin(), row_ptr_.end(), row_ptr_.begin());

  // Pass 2 appends each row's entries in kernel order: the source rank and
  // the signed coefficient's index (2j for +base_j, 2j + 1 for -base_j).
  entries_.resize(row_ptr_[d]);
  for_config_blocks(basis_, [&](std::size_t b, const std::uint64_t* cfg,
                                std::size_t n) {
    std::uint64_t next[kBuildBlock];
    std::copy_n(row_ptr_.data() + b, n, next);
    for (std::size_t j = 0; j < hops.size(); ++j) {
      const SectorKernel& k = hops[j];
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t src = cfg[i] ^ k.flip;
        if (!k.selects(src)) continue;
        entries_[next[i]++] = {
            static_cast<std::uint32_t>(basis_.rank(src)),
            static_cast<std::uint32_t>(2 * j + k.negative(src))};
      }
    }
  });
}

std::size_t SectorOperator::layout_bytes() const {
  return diag_.size() * sizeof(cplx) + coefs_.size() * sizeof(cplx) +
         row_ptr_.size() * sizeof(std::uint64_t) +
         entries_.size() * sizeof(Entry);
}

void SectorOperator::apply_add(std::span<const cplx> x, std::span<cplx> y,
                               cplx scale) const {
  assert(x.data() != y.data() &&
         "SectorOperator::apply_add: x and y must not alias");
  assert(x.size() == basis_.dim() && y.size() == basis_.dim());
  const std::size_t d = basis_.dim();
  if (telemetry::metrics_enabled()) {
    const std::uint64_t nnz = entries_.size();
    telemetry::count(telemetry::Counter::kernel_sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, d + nnz);
    telemetry::count(telemetry::Counter::bytes_moved,
                     kRowBytes * d + kEntryBytes * nnz);
  }
  // One sweep over output rows: h = d[t] x[t] + sum_e coef[e] x[src[e]] in
  // entry order, then y[t] += scale * h. Each chunk writes only its own
  // rows, so any thread count gives the same bits. Real arithmetic on
  // double views (std::complex is array-compatible): std::complex's
  // operator* carries a NaN-recovery branch, and complex temporaries get
  // spilled and reloaded as vectors, a store-forwarding stall per entry.
  const double* const xd = reinterpret_cast<const double*>(x.data());
  const double* const dd = reinterpret_cast<const double*>(diag_.data());
  const double* const cd = reinterpret_cast<const double*>(coefs_.data());
  double* const yd = reinterpret_cast<double*>(y.data());
  const Entry* const ent = entries_.data();
  const std::uint64_t* const rp = row_ptr_.data();
  const double sr = scale.real(), si = scale.imag();
  parallel_for(d, [=](std::size_t lo, std::size_t hi, int) {
    for (std::size_t t = lo; t < hi; ++t) {
      const double xr = xd[2 * t], xi = xd[2 * t + 1];
      double re = dd[2 * t] * xr - dd[2 * t + 1] * xi;
      double im = dd[2 * t] * xi + dd[2 * t + 1] * xr;
      for (std::uint64_t e = rp[t]; e < rp[t + 1]; ++e) {
        const double* c = cd + 2 * std::size_t{ent[e].coef};
        const double* v = xd + 2 * std::size_t{ent[e].src};
        re += c[0] * v[0] - c[1] * v[1];
        im += c[0] * v[1] + c[1] * v[0];
      }
      yd[2 * t] += sr * re - si * im;
      yd[2 * t + 1] += sr * im + si * re;
    }
  });
}

}  // namespace gecos
