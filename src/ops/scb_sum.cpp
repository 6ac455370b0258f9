#include "ops/scb_sum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "ops/conversion.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace gecos {

/// The flip-free words of an ScbSum folded into one split table:
/// d(s) = lo[s mod 2^L] + hi[s >> L] with 2^L = lo.size(). Each diagonal
/// word is a product of per-qubit factors (n, m, Z, I), so a word whose
/// support lies on one side of the split is a function of that side's bits
/// alone and adds into that side's table. Words straddling the split are
/// not folded (ScbPlan keeps their own walks). Empty tables mean no folded
/// words.
struct ScbDiagonal {
  std::vector<cplx> lo, hi;  // the 2^L and 2^(n-L) table halves

  // y += scale * d .* x over the whole vector: one elementwise pass
  // (x.size() == lo.size() * hi.size()). No-op when empty.
  void apply_add(std::span<const cplx> x, std::span<cplx> y,
                 cplx scale) const;
  // sum_s d(s) |x_s|^2 with per-chunk partials combined in chunk order (0
  // when empty).
  cplx expectation(std::span<const cplx> x) const;
};

/// One diagonal pass plus one walk per flip group: a word and its adjoint
/// share one paired TermKernel walk, and a word whose adjoint is absent (or
/// is the word itself), or a diagonal word left out of the table, keeps its
/// own walk.
struct ScbPlan {
  ScbDiagonal diagonal;           // folded flip-free words
  std::vector<TermKernel> walks;  // pairs and lone words, in word order
};

struct ScbKernelCache {
  std::mutex mutex;   // guards the dirty-rebuild transition
  ScbPlan plan;       // compiled from the terms when not dirty
  bool dirty = true;  // true until rebuilt from the terms
};

ScbSum::ScbSum() : kcache_(std::make_shared<ScbKernelCache>()) {}

ScbSum::ScbSum(std::size_t num_qubits)
    : num_qubits_(num_qubits), kcache_(std::make_shared<ScbKernelCache>()) {}

ScbSum::ScbSum(const ScbSum& o) : num_qubits_(o.num_qubits_), terms_(o.terms_) {
  // Share o's cache: the copy has identical terms, so one compilation
  // serves both (the serving layer's whole point). A moved-from o has no
  // cache; give the copy a fresh one.
  kcache_ = o.kcache_ != nullptr ? o.kcache_
                                 : std::make_shared<ScbKernelCache>();
}

ScbSum& ScbSum::operator=(const ScbSum& o) {
  if (this == &o) return *this;
  num_qubits_ = o.num_qubits_;
  terms_ = o.terms_;
  kcache_ = o.kcache_ != nullptr ? o.kcache_
                                 : std::make_shared<ScbKernelCache>();
  return *this;
}

ScbSum::ScbSum(ScbSum&& o) noexcept
    : num_qubits_(o.num_qubits_),
      terms_(std::move(o.terms_)),
      kcache_(std::move(o.kcache_)) {}

ScbSum& ScbSum::operator=(ScbSum&& o) noexcept {
  num_qubits_ = o.num_qubits_;
  terms_ = std::move(o.terms_);
  kcache_ = std::move(o.kcache_);
  return *this;
}

void ScbSum::ensure_qubits(std::size_t n) {
  if (num_qubits_ == 0) num_qubits_ = n;
  if (num_qubits_ != n)
    throw std::invalid_argument("ScbSum: mixed qubit counts");
}

void ScbSum::invalidate_kernels() {
  // Mutation is exclusive by contract, so reseating kcache_ here cannot
  // race with this sum's own const applications. Sole owner: mark dirty in
  // place (still under the cache mutex — another sum may have shared it a
  // moment ago on a different thread). Shared: detach onto a fresh cache
  // so the other owners keep a valid compilation of THEIR terms.
  if (kcache_ != nullptr && kcache_.use_count() == 1) {
    std::scoped_lock<std::mutex> lk(kcache_->mutex);
    kcache_->dirty = true;
    kcache_->plan = ScbPlan{};
  } else {
    kcache_ = std::make_shared<ScbKernelCache>();
  }
}

ScbKernelCache& ScbSum::ensure_cache() const {
  // Null only after a move stole the cache; the lazy recreation here is
  // NOT safe against two threads' concurrent first application of a
  // moved-from sum — but using a moved-from object concurrently without
  // first reassigning it is already out of contract.
  if (kcache_ == nullptr) kcache_ = std::make_shared<ScbKernelCache>();
  return *kcache_;
}

void ScbSum::add(const std::vector<Scb>& word, cplx coeff, double tol) {
  if (word.empty()) throw std::invalid_argument("ScbSum: empty word");
  ensure_qubits(word.size());
  invalidate_kernels();
  auto it = terms_.find(word);
  if (it == terms_.end()) {
    if (std::abs(coeff) > tol) terms_.emplace(word, coeff);
    return;
  }
  it->second += coeff;
  if (std::abs(it->second) <= tol) terms_.erase(it);
}

void ScbSum::add(const ScbTerm& term, double tol) {
  add(term.ops(), term.coeff(), tol);
  if (term.add_hc()) {
    const ScbTerm adj = term.adjoint();
    add(adj.ops(), adj.coeff(), tol);
  }
}

void ScbSum::add(const ScbSum& o, double tol) {
  for (const auto& [word, c] : o.terms_) add(word, c, tol);
}

cplx ScbSum::coeff_of(const std::vector<Scb>& word) const {
  auto it = terms_.find(word);
  return it == terms_.end() ? cplx(0.0) : it->second;
}

ScbSum ScbSum::operator+(const ScbSum& o) const {
  ScbSum r = *this;
  r.add(o);
  return r;
}

ScbSum ScbSum::operator-(const ScbSum& o) const {
  ScbSum r = *this;
  for (const auto& [word, c] : o.terms_) r.add(word, -c);
  return r;
}

ScbSum ScbSum::operator*(cplx s) const {
  ScbSum r(num_qubits_);  // fresh sum starts with a fresh dirty cache
  if (s == cplx(0.0)) return r;
  r.terms_ = terms_;
  for (auto& [word, c] : r.terms_) c *= s;
  return r;
}

ScbSum ScbSum::operator*(const ScbSum& o) const {
  if (num_qubits_ != o.num_qubits_ && !terms_.empty() && !o.terms_.empty())
    throw std::invalid_argument("ScbSum: product with mixed qubit counts");
  ScbSum r(num_qubits_ ? num_qubits_ : o.num_qubits_);
  std::vector<Scb> word(r.num_qubits());
  for (const auto& [aw, ac] : terms_) {
    for (const auto& [bw, bc] : o.terms_) {
      cplx coeff = ac * bc;
      bool zero = false;
      for (std::size_t q = 0; q < word.size() && !zero; ++q) {
        const ScaledScb p = scb_mul(aw[q], bw[q]);
        if (p.coeff == cplx(0.0)) zero = true;
        coeff *= p.coeff;
        word[q] = p.op;
      }
      if (!zero) r.add(word, coeff);
    }
  }
  return r;
}

ScbSum ScbSum::adjoint() const {
  ScbSum r(num_qubits_);
  std::vector<Scb> adj(num_qubits_);
  for (const auto& [word, c] : terms_) {
    for (std::size_t q = 0; q < word.size(); ++q) adj[q] = scb_adjoint(word[q]);
    r.add(adj, std::conj(c));
  }
  return r;
}

ScbSum ScbSum::commutator(const ScbSum& o) const {
  return *this * o - o * *this;
}

bool ScbSum::is_hermitian(double tol) const {
  std::vector<Scb> adj(num_qubits_);
  for (const auto& [word, c] : terms_) {
    for (std::size_t q = 0; q < word.size(); ++q) adj[q] = scb_adjoint(word[q]);
    if (std::abs(coeff_of(adj) - std::conj(c)) > tol) return false;
  }
  return true;
}

double ScbSum::one_norm() const {
  double s = 0;
  for (const auto& [word, c] : terms_) s += std::abs(c);
  return s;
}

void ScbSum::prune(double tol) {
  invalidate_kernels();
  for (auto it = terms_.begin(); it != terms_.end();)
    it = std::abs(it->second) <= tol ? terms_.erase(it) : std::next(it);
}

std::vector<ScbTerm> ScbSum::bare_terms() const {
  std::vector<ScbTerm> out;
  out.reserve(terms_.size());
  for (const auto& [word, c] : terms_) out.emplace_back(c, word, false);
  return out;
}

std::vector<ScbTerm> ScbSum::hermitian_terms(double tol) const {
  return gather_hermitian(bare_terms(), tol);
}

PauliSum ScbSum::to_pauli() const {
  return terms_to_pauli(bare_terms());
}

Matrix ScbSum::to_matrix() const {
  const std::size_t dim = std::size_t{1} << num_qubits_;
  Matrix m(dim, dim);
  for (const auto& [word, c] : terms_) m += ScbTerm(c, word, false).bare_matrix();
  return m;
}

namespace {

/// Split positions tried: within this many bits of n/2, so both table
/// halves hold about 2^(n/2) entries (1024 at n = 20) and stay
/// cache-resident next to the streamed vectors.
constexpr int kSplitSlack = 2;

/// a * b without the NaN-recovery call of std::complex's operator*, so the
/// diagonal pass vectorizes; the same IEEE operations for every chunking
/// (scb_sum.cpp is compiled with -ffp-contract=off).
inline cplx cmul(cplx a, cplx b) {
  return cplx(a.real() * b.real() - a.imag() * b.imag(),
              a.real() * b.imag() + a.imag() * b.real());
}

/// Qubits a flip-free word acts on nontrivially (its n/m/Z factors).
std::uint64_t support(const TermKernel& k) {
  return k.select_mask | k.sign_mask;
}

/// True when the support has bits on both sides of the split at bit L.
bool straddles(std::uint64_t supp, int L) {
  const std::uint64_t lo = (std::uint64_t{1} << L) - 1;
  return (supp & lo) != 0 && (supp & ~lo) != 0;
}

/// Adds the flip-free word k (its masks shifted down by `shift`) into
/// table[u] for every u in [0, table.size()).
void add_word(std::vector<cplx>& table, const TermKernel& k, int shift) {
  const std::uint64_t sel = k.select_mask >> shift;
  const std::uint64_t val = k.select_val >> shift;
  const std::uint64_t sgn = k.sign_mask >> shift;
  for (std::uint64_t u = 0; u < table.size(); ++u)
    if ((u & sel) == val)
      table[u] += (std::popcount(u & sgn) & 1) ? -k.base : k.base;
}

/// Compiles the flip-free words: picks the split near n/2 with the fewest
/// straddling words (then the most even one, then the longer lo half, so
/// the inner loop runs over longer blocks) and folds every other word
/// into the tables. Returns the straddling words, left to walk.
std::vector<TermKernel> fold_diagonal(std::vector<TermKernel> words,
                                      std::size_t n, ScbDiagonal& out) {
  const int nq = static_cast<int>(n);
  int best = -1;
  std::size_t best_straddle = 0;
  for (int L = std::max(0, nq / 2 - kSplitSlack);
       L <= std::min(nq, (nq + 1) / 2 + kSplitSlack); ++L) {
    std::size_t straddle = 0;
    for (const TermKernel& k : words) straddle += straddles(support(k), L);
    if (best < 0 || straddle < best_straddle ||
        (straddle == best_straddle &&
         std::abs(2 * L - nq) <= std::abs(2 * best - nq))) {
      best = L;
      best_straddle = straddle;
    }
  }
  if (best_straddle == words.size()) return words;  // nothing to fold
  out.lo.assign(std::size_t{1} << best, cplx(0.0));
  out.hi.assign(std::size_t{1} << (nq - best), cplx(0.0));
  const std::uint64_t lo_mask = (std::uint64_t{1} << best) - 1;
  std::vector<TermKernel> rest;
  for (const TermKernel& k : words) {
    if (straddles(support(k), best)) {
      rest.push_back(k);
      continue;
    }
    if ((support(k) & ~lo_mask) != 0)
      add_word(out.hi, k, best);
    else
      add_word(out.lo, k, 0);
  }
  return rest;
}

}  // namespace

void ScbDiagonal::apply_add(std::span<const cplx> x, std::span<cplx> y,
                            cplx scale) const {
  if (lo.empty()) return;
  assert(x.size() == lo.size() * hi.size() && y.size() == x.size());
  if (telemetry::metrics_enabled()) {
    telemetry::count(telemetry::Counter::kernel_sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, x.size());
    telemetry::count(telemetry::Counter::bytes_moved, x.size() * 48);
  }
  // One contiguous block of 2^L amplitudes per hi index; every amplitude
  // is written once, by the chunk owning its block.
  const std::size_t nlo = lo.size();
  const cplx* dl = lo.data();
  parallel_for(
      hi.size(),
      [&](std::size_t h0, std::size_t h1, int) {
        for (std::size_t h = h0; h < h1; ++h) {
          const cplx* xb = x.data() + h * nlo;
          cplx* yb = y.data() + h * nlo;
          const cplx dh = hi[h];
          for (std::size_t i = 0; i < nlo; ++i)
            yb[i] += cmul(cmul(scale, dl[i] + dh), xb[i]);
        }
      },
      std::max<std::size_t>(1, kParallelGrain / nlo));
}

cplx ScbDiagonal::expectation(std::span<const cplx> x) const {
  if (lo.empty()) return 0.0;
  assert(x.size() == lo.size() * hi.size());
  if (telemetry::metrics_enabled()) {
    telemetry::count(telemetry::Counter::kernel_sweeps);
    telemetry::count(telemetry::Counter::amplitudes_touched, x.size());
    telemetry::count(telemetry::Counter::bytes_moved, x.size() * 16);
  }
  // Per block: sum lo[i] |x_i|^2 and sum |x_i|^2, then add hi[h] times the
  // latter. Per-chunk partials combine in chunk order (as vec_dot does).
  std::array<cplx, kMaxParallelChunks> partial{};
  const std::size_t nlo = lo.size();
  const cplx* dl = lo.data();
  parallel_for(
      hi.size(),
      [&](std::size_t h0, std::size_t h1, int chunk) {
        double acc_re = 0.0, acc_im = 0.0;
        for (std::size_t h = h0; h < h1; ++h) {
          const cplx* xb = x.data() + h * nlo;
          double wr = 0.0, wi = 0.0, nrm = 0.0;
          for (std::size_t i = 0; i < nlo; ++i) {
            const double p =
                xb[i].real() * xb[i].real() + xb[i].imag() * xb[i].imag();
            nrm += p;
            wr += dl[i].real() * p;
            wi += dl[i].imag() * p;
          }
          acc_re += wr + hi[h].real() * nrm;
          acc_im += wi + hi[h].imag() * nrm;
        }
        partial[static_cast<std::size_t>(chunk)] = cplx(acc_re, acc_im);
      },
      std::max<std::size_t>(1, kParallelGrain / nlo));
  cplx sum = 0;
  for (const cplx& p : partial) sum += p;
  return sum;
}

const ScbPlan& ScbSum::plan() const {
  ScbKernelCache& cache = ensure_cache();
  // Guarded rebuild: several threads may share this sum const-ly (e.g.
  // expectation values from a measurement pool); only one rebuilds.
  std::scoped_lock<std::mutex> lk(cache.mutex);
  if (cache.dirty) {
    ScbPlan p;
    std::vector<TermKernel> diagonal;
    std::vector<Scb> adj(num_qubits_);
    for (const auto& [word, c] : terms_) {
      TermKernel k(ScbTerm(c, word, false));
      if (k.flip == 0) {
        diagonal.push_back(k);
        continue;
      }
      for (std::size_t q = 0; q < word.size(); ++q)
        adj[q] = scb_adjoint(word[q]);
      const auto partner = adj == word ? terms_.end() : terms_.find(adj);
      if (partner != terms_.end()) {
        if (adj < word) continue;  // walked with its partner, earlier
        k.pair_with(TermKernel(ScbTerm(partner->second, adj, false)));
      }
      p.walks.push_back(k);
    }
    // Diagonal words the table does not take walk after the groups.
    for (TermKernel& k : fold_diagonal(std::move(diagonal), num_qubits_,
                                       p.diagonal))
      p.walks.push_back(k);
    cache.plan = std::move(p);
    cache.dirty = false;
    telemetry::count(telemetry::Counter::kernel_compiles,
                     cache.plan.walks.size() +
                         (cache.plan.diagonal.lo.empty() ? 0 : 1));
  }
  return cache.plan;
}

void ScbSum::apply_add(std::span<const cplx> x, std::span<cplx> y,
                       cplx scale) const {
  assert(x.data() != y.data() && "ScbSum::apply_add: x, y must not alias");
  assert(x.size() == dim() && y.size() == dim());
  const ScbPlan& p = plan();
  p.diagonal.apply_add(x, y, scale);
  for (const TermKernel& k : p.walks) k.apply_add(x, y, scale);
}

cplx ScbSum::expectation(std::span<const cplx> x) const {
  if (x.size() != dim())
    throw std::invalid_argument("ScbSum::expectation: size mismatch");
  const ScbPlan& p = plan();
  cplx s = p.diagonal.expectation(x);
  for (const TermKernel& k : p.walks) s += k.expectation(x);
  // vec_dot's health sweep: a NaN/Inf among the amplitudes the plan reads
  // poisons the sum (the walks run in parallel_for bodies, which must not
  // throw, so the check lives on the combined scalar).
  if (!std::isfinite(s.real()) || !std::isfinite(s.imag()))
    throw Error(ErrorKind::numerical_nan,
                "ScbSum::expectation: non-finite amplitude in a vector of "
                "dim " + std::to_string(x.size()));
  return s;
}

std::string ScbSum::str() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [word, c] : terms_) {
    if (!first) os << " + ";
    first = false;
    os << ScbTerm(c, word, false).str();
  }
  if (first) os << "0";
  return os.str();
}

ScbSum operator*(cplx s, const ScbSum& m) { return m * s; }

}  // namespace gecos
