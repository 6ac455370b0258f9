// gecos_bench: runs one benchmark workload and prints one JSON line.
//
//   gecos_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--size full|tiny] [--perturb-reference]
//               [--out-dir DIR] [--gecosd PATH]
//   gecos_bench --fingerprint
//
// The workload line is {"attempted", "failed", "failures", "input_digest",
// "metrics"}; benchmark/run.py turns it into the benchmark's result line.
// --fingerprint prints the host fingerprint (nproc, L3 size, SIMD tier,
// thread count, compiler) plus a DRAM triad measured on arrays whose total
// size is at least 4x the L3.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "simd/simd.hpp"
#include "util/parallel.hpp"

namespace {

using namespace bench;

int usage() {
  std::fprintf(stderr,
               "usage: gecos_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--perturb-reference] "
               "[--out-dir DIR] [--gecosd PATH]\n"
               "       gecos_bench --fingerprint\n");
  return 2;
}

/// STREAM triad a = b + s c over three arrays totalling >= 4x the L3;
/// best of several passes, in GB/s (24 bytes per element: two reads and a
/// write).
double triad_gbs(std::size_t l3_bytes) {
  const std::size_t bytes = std::max<std::size_t>(4 * l3_bytes, 256u << 20);
  const std::size_t n = bytes / (3 * sizeof(double));
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  double best = 0.0;
  for (int pass = 0; pass < 20; ++pass) {
    const double t0 = now_s();
    gecos::parallel_for(n, [&](std::size_t lo, std::size_t hi, int) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 0.5 * c[i];
    });
    const double dt = now_s() - t0;
    if (pass > 0) best = std::max(best, 24.0 * static_cast<double>(n) / dt);
  }
  if (a[n / 2] != 2.0) throw std::runtime_error("triad: wrong result");
  return best * 1e-9;
}

int fingerprint() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t l3_bytes = l3 > 0 ? static_cast<std::size_t>(l3) : 0;
  const double gbs = triad_gbs(l3_bytes);
  std::printf(
      "{\"nproc\": %ld, \"l3_bytes\": %zu, \"simd_tier\": \"%s\", "
      "\"threads\": %d, \"compiler\": \"gcc %s\", \"triad_gbs\": %.6f}\n",
      sysconf(_SC_NPROCESSORS_ONLN), l3_bytes,
      gecos::simd_tier_name(gecos::simd_tier()), gecos::num_threads(),
      __VERSION__, gbs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  // Every run uses one thread (and so does the daemon it spawns). On a
  // shared VM the host preempts vCPUs in bursts, and a parallel dispatch
  // waits for its slowest thread: through one burst the slowest 4-thread
  // solve took 2.9x the fastest, the slowest 1-thread solve 1.5x (see
  // README.md, "Run-to-run spread").
  gecos::set_num_threads(1);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--fingerprint") return fingerprint();
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() == "1";
      } else if (a == "--size") {
        const std::string s = value();
        if (s != "full" && s != "tiny") return usage();
        o.size = s == "tiny" ? Size::tiny : Size::full;
      } else if (a == "--perturb-reference") {
        o.perturb_reference = true;
      } else if (a == "--out-dir") {
        o.out_dir = value();
      } else if (a == "--gecosd") {
        o.gecosd = value();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gecos_bench: %s\n", e.what());
      return usage();
    }
  }
  if (!have_workload) return usage();

  Result r;
  try {
    if (o.workload == "sector_ground") {
      r = run_sector_ground(o);
    } else if (o.workload == "full_ground") {
      r = run_full_ground(o);
    } else if (o.workload == "trotter_quench") {
      r = run_trotter_quench(o);
    } else if (o.workload == "serve_jobs") {
      r = run_serve_jobs(o);
    } else {
      std::fprintf(stderr, "gecos_bench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gecos_bench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  if (o.trace) {
    gecos::telemetry::TraceWriter().write_file(o.out_dir + "/" + o.workload +
                                               ".trace.json");
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i ? ", \"" : "\"") + r.failures[i] + "\"";
    std::fprintf(stderr, "gecos_bench: check failed: %s\n",
                 r.failures[i].c_str());
  }
  failures += "]";
  std::printf(
      "{\"attempted\": %zu, \"failed\": %zu, \"failures\": %s, "
      "\"input_digest\": \"%016llx\", \"metrics\": %s}\n",
      r.attempted, r.failed, failures.c_str(),
      static_cast<unsigned long long>(r.input_digest), r.metrics.json().c_str());
  return 0;
}
