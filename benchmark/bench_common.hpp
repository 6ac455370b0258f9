// Shared plumbing of the gecos benchmark program: run options, timers,
// order statistics, the metric sink, trace digests and the forwarding
// operator wrapper that times a LinearOperator from outside.
//
// Every layer is measured from outside the library: the program times calls
// into public functions, reads the counters telemetry already exports and
// drops GECOS_SPAN spans in these files only. The per-layer digest reads the
// recorded spans back (telemetry::trace_events()), the same events the
// trace file holds.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fermion/hubbard.hpp"
#include "ops/linear_op.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace bench {

/// Problem scale: full is the benchmark; tiny is the smoke scale the
/// benchmark's own tests run.
enum class Size { full, tiny };

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::full;
  /// Test hook: shifts every pinned reference value so the correctness
  /// checks must report failed operations.
  bool perturb_reference = false;
  std::string out_dir = ".bench_build/out";  ///< trace files, daemon state
  std::string gecosd = ".bench_build/gecos/gecosd";  ///< daemon binary
};

/// The benchmark's lattice family: an lx x 2 spinful Hubbard ladder,
/// periodic along x, t = 1, U = 4, mu = 0.5.
inline gecos::HubbardParams hubbard_ladder(std::size_t lx) {
  gecos::HubbardParams p;
  p.lx = lx;
  p.ly = 2;
  p.t = 1.0;
  p.u = 4.0;
  p.mu = 0.5;
  p.periodic_x = true;
  p.spinful = true;
  return p;
}

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0 for an empty one.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Peak resident set of this process, MiB.
inline double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Named metrics of one run, each with its unit, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  /// {"name": {"value": v, "unit": u}, ...} with full double precision.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Outcome of one workload run.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  /// Human-readable reasons for failed checks (printed to stderr).
  std::vector<std::string> failures;
  /// Digest of the seed-generated inputs, so a test can show that another
  /// seed changed them.
  std::uint64_t input_digest = 0;

  /// Records one checked operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// FNV-1a style mixing of raw bytes into a running digest.
inline std::uint64_t mix_digest(std::uint64_t h, const void* data,
                                std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Span durations by name, read back from the recorded trace.
class SpanDigest {
 public:
  /// Snapshot of every recorded span event.
  static SpanDigest read();
  /// Durations (seconds) of every span with this name, in start order.
  std::vector<double> durations(const char* name) const;
  /// Sum of durations (seconds).
  double total_s(const char* name) const { return sum(durations(name)); }
  std::size_t count(const char* name) const { return durations(name).size(); }

 private:
  std::map<std::string, std::vector<double>> by_name_;
};

/// Metrics-registry interval for the counters and histograms the layers
/// already export.
struct CounterWindow {
  gecos::telemetry::MetricsSnapshot before;
  void start() { before = gecos::telemetry::metrics_snapshot(); }
  gecos::telemetry::MetricsSnapshot delta() const {
    return gecos::telemetry::metrics_delta(
        before, gecos::telemetry::metrics_snapshot());
  }
};

/// Turns metrics + span recording on or off together.
inline void set_traced(bool on) {
  gecos::telemetry::set_metrics_enabled(on);
  gecos::telemetry::set_tracing_enabled(on);
}

/// Adds parallel.* from a registry delta: pool dispatches, worker idle time
/// and pool utilization (task time over task + idle).
void add_parallel_metrics(Metrics& m,
                          const gecos::telemetry::MetricsSnapshot& d);

/// Forwarding wrapper: times every apply_add of the wrapped operator and
/// records it as a span, so the solver's operator layer is measured from
/// outside. `span_name` must be a string literal.
class TimedOperator : public gecos::LinearOperator {
 public:
  TimedOperator(const gecos::LinearOperator& inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}
  std::size_t n_qubits() const override { return inner_.n_qubits(); }
  std::size_t dim() const override { return inner_.dim(); }
  using gecos::LinearOperator::apply_add;
  void apply_add(std::span<const gecos::cplx> x, std::span<gecos::cplx> y,
                 gecos::cplx scale) const override {
    gecos::telemetry::ScopedSpan span(span_name_);
    inner_.apply_add(x, y, scale);
  }

 private:
  const gecos::LinearOperator& inner_;
  const char* span_name_;
};

/// Workload entry points (one per translation unit).
Result run_sector_ground(const Options& o);
Result run_full_ground(const Options& o);
Result run_trotter_quench(const Options& o);
Result run_serve_jobs(const Options& o);

/// Adds the universal end-to-end job metrics from per-job latencies and the
/// wall time of the measured loop.
void add_job_metrics(Metrics& m, const std::vector<double>& job_s,
                     double loop_s);

}  // namespace bench
