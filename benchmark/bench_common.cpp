#include "bench_common.hpp"

#include <sstream>

namespace bench {

namespace tm = gecos::telemetry;

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << "}";
  return os.str();
}

SpanDigest SpanDigest::read() {
  SpanDigest d;
  for (const tm::TraceEvent& ev : tm::trace_events())
    d.by_name_[ev.name].push_back(static_cast<double>(ev.dur_ns) * 1e-9);
  return d;
}

std::vector<double> SpanDigest::durations(const char* name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? std::vector<double>{} : it->second;
}

void add_parallel_metrics(Metrics& m, const tm::MetricsSnapshot& d) {
  const double idle = static_cast<double>(d.hist(tm::Hist::pool_idle_ns).sum);
  const double task = static_cast<double>(d.hist(tm::Hist::pool_task_ns).sum);
  m.set("parallel.dispatches",
        static_cast<double>(d.counter(tm::Counter::pool_dispatches)), "count");
  m.set("parallel.idle_s", idle * 1e-9, "s");
  m.set("parallel.utilization", task + idle > 0 ? task / (task + idle) : 0.0,
        "ratio");
}

void add_job_metrics(Metrics& m, const std::vector<double>& job_s,
                     double loop_s) {
  m.set("job_p50_s", percentile(job_s, 50.0), "s");
  m.set("job_p95_s", percentile(job_s, 95.0), "s");
  m.set("jobs_per_s",
        loop_s > 0 ? static_cast<double>(job_s.size()) / loop_s : 0.0, "1/s");
}

}  // namespace bench
