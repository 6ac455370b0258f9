// serve_jobs: a closed loop of served jobs against a freshly spawned gecosd.
//
// One serve::Client connection keeps a window of 8 jobs in flight. The job
// sequence is a seeded shuffle of fixed 24-job rounds of small-sector jobs:
// ground states, spectral functions, groups of four expectation jobs
// sharing one evolution_key (so the daemon can batch them) and one heavier
// ground state per round that builds a head-of-line queue. The client
// polls only the oldest in-flight job — the executor runs jobs in
// submission order — and sweeps the whole window when that job starts or
// finishes, which is when batch riders start and finish with it.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <cstring>
#include <random>
#include <thread>

#include "bench_common.hpp"
#include "serve/batch.hpp"
#include "serve/client.hpp"
#include "spectral/continued_fraction.hpp"
#include "util/parallel.hpp"

extern char** environ;

namespace bench {

using namespace gecos;
using namespace gecos::serve;

namespace {

constexpr std::size_t kWindow = 8;
constexpr std::size_t kMinJobs = 200;
/// Client pause between polls when no job finished: short next to a job's
/// latency (tens of ms), long enough that polling takes little CPU from the
/// daemon.
constexpr auto kPollPause = std::chrono::milliseconds(1);

/// Pinned ground-state energies of the menu's sector jobs (computed with
/// the library this benchmark was introduced against, full precision).
constexpr double kE0Ladder3One = -6.5740156053840186;  // 3x2, (1,1)
constexpr double kE0Ladder4One = -6.6957769971984957;  // 4x2, (1,1)
constexpr double kE0Ladder3Two = -8.3329621993847125;  // 3x2, (2,2)
constexpr double kE0Ladder4Three = -10.417099009607177;  // 4x2, (3,3)

JobSpec ground_job(std::size_t lx, std::uint32_t n, std::uint64_t seed) {
  JobSpec s;
  s.kind = JobKind::kGroundState;
  s.lattice = hubbard_ladder(lx);
  s.n_up = n;
  s.n_down = n;
  s.seed = seed;
  return s;
}

double pinned_e0(const JobSpec& s) {
  if (s.n_up == 3) return kE0Ladder4Three;
  if (s.n_up == 2) return kE0Ladder3Two;
  return s.lattice.lx == 3 ? kE0Ladder3One : kE0Ladder4One;
}

/// Expectation job `member` of an evolution group: the CDW quench of the
/// 3x2 lattice, 5 steps of dt = 0.02, measuring the total number plus one
/// density and one doublon that depend on the member and the group variant.
JobSpec expectation_job(std::uint64_t group_seed, int member, int variant) {
  JobSpec s;
  s.kind = JobKind::kExpectation;
  s.lattice = hubbard_ladder(3);
  s.dt = 0.02;
  s.steps = 5;
  s.seed = group_seed;
  const std::uint32_t a =
      static_cast<std::uint32_t>((member + 3 * variant) % 6);
  const std::uint32_t b = static_cast<std::uint32_t>((3 * member + 1) % 6);
  s.observables = {{ObservableKind::kTotalNumber, 0, 0},
                   {ObservableKind::kDensity, a, 0},
                   {ObservableKind::kDoublon, b, 0}};
  return s;
}

JobSpec spectral_job(std::uint64_t seed) {
  JobSpec s;
  s.kind = JobKind::kSpectral;
  s.lattice = hubbard_ladder(3);
  s.seed = seed;
  return s;
}

/// The seeded job sequence, one round at a time. A round is 24 jobs, with
/// executor times measured one job at a time: one 4x2 (3,3) ground state
/// (about 70 ms), six 3x2 (2,2) ground states and two 3x2 spectral
/// functions (about 18 ms each), seven ground states of the (1,1) sectors
/// of the 3x2 and 4x2 lattices (under 1 ms each) and two groups of four
/// 3x2 expectation jobs (one batched pass each). Every job also pays about
/// 2 ms of serving: two fsync'd journal writes and three round trips. So
/// the kernels take about four fifths of the loop and the serving layers
/// the rest; a lighter mix made the loop's speed follow the shared disk's
/// fsync latency. One heavy job per three windows lets the queue behind it
/// drain before the next, so each heavy job makes its own head-of-line
/// episode, and p95 falls inside those episodes. The seed shuffles the
/// order of the round's blocks and picks every job's seed; expectation
/// groups stay contiguous so they can batch.
class JobGenerator {
 public:
  JobGenerator(std::uint64_t seed, bool tiny)
      : rng_(seed * 0x9E3779B97F4A7C15ull + 7), tiny_(tiny) {}

  /// Appends one round to `jobs`.
  void next_round(std::vector<JobSpec>& jobs) {
    using Block = std::vector<JobSpec>;
    std::vector<Block> blocks;
    blocks.push_back({ground_job(4, 3, rng_())});
    for (int i = 0; i < (tiny_ ? 1 : 6); ++i)
      blocks.push_back({ground_job(3, 2, rng_())});
    for (int i = 0; i < (tiny_ ? 1 : 2); ++i)
      blocks.push_back({spectral_job(rng_())});
    for (int i = 0; i < (tiny_ ? 2 : 7); ++i)
      blocks.push_back({ground_job(i % 2 == 0 ? 3 : 4, 1, rng_())});
    for (int g = 0; g < (tiny_ ? 1 : 2); ++g) {
      const std::uint64_t gs = rng_();
      Block group;
      for (int m = 0; m < 4; ++m) group.push_back(expectation_job(gs, m, g));
      blocks.push_back(group);
    }
    std::shuffle(blocks.begin(), blocks.end(), rng_);
    for (Block& b : blocks)
      for (JobSpec& j : b) jobs.push_back(std::move(j));
  }

 private:
  std::mt19937_64 rng_;
  bool tiny_;
};

/// One session's jobs: whole rounds, at least kMinJobs so p95 has >= 10
/// samples beyond it (one round at tiny scale).
std::vector<JobSpec> session_jobs(JobGenerator& gen, bool tiny) {
  std::vector<JobSpec> jobs;
  while (jobs.size() < (tiny ? 1 : kMinJobs)) gen.next_round(jobs);
  return jobs;
}

/// A spawned gecosd with its own socket and state directory.
struct Daemon {
  pid_t pid = -1;
  std::string socket;
  std::string state_dir;
  std::unique_ptr<Client> client;
  rusage usage{};

  /// Spawns the daemon and connects (the kHello handshake runs in the
  /// Client constructor). Returns the seconds this took.
  double start(const Options& o, const std::string& tag, bool traced) {
    const double t0 = now_s();
    socket = o.out_dir + "/" + tag + ".sock";
    state_dir = o.out_dir + "/" + tag + ".state";
    std::filesystem::remove_all(state_dir);
    std::filesystem::remove(socket);
    const std::string threads = std::to_string(num_threads());
    std::vector<std::string> args = {o.gecosd,   "--socket",  socket,
                                     "--state-dir", state_dir, "--threads",
                                     threads};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "GECOS_TRACE=", 12) != 0 &&
          std::strncmp(*e, "GECOS_METRICS=", 14) != 0)
        env_store.emplace_back(*e);
    if (traced)
      env_store.push_back("GECOS_TRACE=" + o.out_dir + "/gecosd-%p.trace.json");
    std::vector<char*> envp;
    for (std::string& e : env_store) envp.push_back(e.data());
    envp.push_back(nullptr);
    if (posix_spawn(&pid, o.gecosd.c_str(), nullptr, nullptr, argv.data(),
                    envp.data()) != 0) {
      pid = -1;
      throw std::runtime_error("cannot spawn " + o.gecosd);
    }
    // Polls without sleeping: on a virtual machine a short sleep can take
    // milliseconds to wake from, which would swamp the start-up time. The
    // socket file appears at bind(); connecting retries until listen().
    while (true) {
      if (std::filesystem::exists(socket)) {
        try {
          client = std::make_unique<Client>(socket);
          break;
        } catch (const Error&) {
        }
      }
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        throw std::runtime_error("gecosd exited during start-up");
      }
      if (now_s() - t0 > 30.0) throw std::runtime_error("gecosd: no hello");
    }
    return now_s() - t0;
  }

  /// Asks the daemon to exit and reaps it (SIGKILL after 30 s), keeping
  /// its resource usage.
  void stop() {
    if (pid < 0) return;
    try {
      if (client) client->shutdown();
    } catch (const std::exception&) {
    }
    client.reset();
    const double t0 = now_s();
    int status = 0;
    while (wait4(pid, &status, WNOHANG, &usage) == 0) {
      if (now_s() - t0 > 30.0) {
        kill(pid, SIGKILL);
        wait4(pid, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid = -1;
    std::filesystem::remove_all(state_dir);
    std::filesystem::remove(socket);
  }

  ~Daemon() { stop(); }
};

/// Client-side record of one job of the loop.
struct Pending {
  std::uint64_t id = 0;
  std::size_t index = 0;
  double t_submit = 0;
  double t_ack = 0;
  double t_started = -1;  ///< first seen not queued
};

/// Everything one closed loop measured.
struct LoopStats {
  std::vector<double> job_s, queue_s, run_s;
  std::vector<JobResult> results;
  std::vector<JobState> states;
  std::size_t max_queue_depth = 0;
  ServerStats before, after;
  double wall_s = 0;
};

/// Runs `jobs` through the daemon.
LoopStats closed_loop(Client& c, const std::vector<JobSpec>& jobs) {
  LoopStats ls;
  ls.results.resize(jobs.size());
  ls.states.resize(jobs.size(), JobState::kQueued);
  ls.before = c.stats();
  std::deque<Pending> inflight;
  std::size_t next = 0;
  const double t0 = now_s();
  const auto status = [&](Pending& p) {
    JobStatus st;
    {
      GECOS_SPAN("bench.serve.status");
      st = c.status(p.id);
    }
    if (st.state != JobState::kQueued && p.t_started < 0) p.t_started = now_s();
    return st;
  };
  // Sweeps the window behind the head: catches batch riders starting or
  // finishing with it, and samples the queue depth.
  const auto sweep = [&] {
    std::size_t queued = 0;
    for (std::size_t i = 1; i < inflight.size(); ++i)
      if (status(inflight[i]).state == JobState::kQueued) ++queued;
    ls.max_queue_depth = std::max(ls.max_queue_depth, queued);
  };
  while (next < jobs.size() || !inflight.empty()) {
    while (inflight.size() < kWindow && next < jobs.size()) {
      Pending p;
      p.index = next;
      p.t_submit = now_s();
      {
        GECOS_SPAN("bench.serve.submit");
        p.id = c.submit(jobs[next]);
      }
      p.t_ack = now_s();
      inflight.push_back(p);
      ++next;
    }
    bool finished = false;
    for (std::size_t i = 0; i < inflight.size(); ++i) {
      Pending& p = inflight[i];
      // The head is always polled; the rest only after a head transition.
      if (i > 0 && !finished) break;
      const bool was_started = p.t_started >= 0;
      const JobStatus st = status(p);
      if (i == 0 && !was_started && p.t_started >= 0) sweep();
      const bool terminal = st.state == JobState::kDone ||
                            st.state == JobState::kFailed ||
                            st.state == JobState::kCancelled;
      if (!terminal) continue;
      if (st.state == JobState::kDone) {
        GECOS_SPAN("bench.serve.fetch");
        ls.results[p.index] = c.fetch(p.id);
      }
      ls.states[p.index] = st.state;
      ls.job_s.push_back(now_s() - p.t_submit);
      ls.queue_s.push_back(p.t_started - p.t_ack);
      if (st.elapsed_s > 0) ls.run_s.push_back(st.elapsed_s);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      --i;
      finished = true;
    }
    if (!finished) std::this_thread::sleep_for(kPollPause);
  }
  ls.wall_s = now_s() - t0;
  ls.after = c.stats();
  return ls;
}

/// Correctness of every job of a loop: each reaches kDone; ground energies
/// match the pinned values; the total-number column equals the filling; an
/// expectation column equals, bitwise, the same job run alone in-process;
/// a spectral function equals the in-process one.
void check_jobs(Result& r, const std::vector<JobSpec>& jobs,
                const LoopStats& ls, bool perturb) {
  const double shift = perturb ? 1e-6 : 0.0;
  std::map<std::string, std::vector<double>> alone;  // by observable set
  std::vector<double> spectral_ref;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& s = jobs[i];
    const JobResult& res = ls.results[i];
    char what[200];
    std::snprintf(what, sizeof what, "job %zu kind %u state %u", i,
                  static_cast<unsigned>(s.kind),
                  static_cast<unsigned>(ls.states[i]));
    if (ls.states[i] != JobState::kDone) {
      r.check(false, what);
      continue;
    }
    bool ok = res.converged;
    if (s.kind == JobKind::kGroundState) {
      const double ref = pinned_e0(s);
      ok = ok && !res.eigenvalues.empty() &&
           std::abs(res.eigenvalues[0] - (ref + shift)) <= 1e-8;
      if (!res.eigenvalues.empty())
        std::snprintf(what, sizeof what, "ground job %zu lx=%zu E0=%.17g", i,
                      s.lattice.lx, res.eigenvalues[0]);
    } else if (s.kind == JobKind::kExpectation) {
      const std::size_t nobs = s.observables.size();
      const double filling =
          static_cast<double>(std::popcount(hubbard_cdw_occupation(s.lattice)));
      ok = ok && res.values.size() == s.steps * nobs;
      for (std::size_t k = 0; ok && k < s.steps; ++k)
        ok = std::abs(res.values[k * nobs] - (filling + shift)) <= 1e-10;
      std::string key;
      for (const ObservableSpec& ob : s.observables)
        key += std::to_string(static_cast<unsigned>(ob.kind)) + ":" +
               std::to_string(ob.site_a) + ",";
      auto it = alone.find(key);
      if (it == alone.end()) {
        const HubbardParams& p = s.lattice;
        const std::uint64_t occ = hubbard_cdw_occupation(p);
        const SectorBasis basis = hubbard_sector_of(p, occ);
        const ScbSum hs = hubbard_scb(p);
        const SectorOperator h(basis, hs);
        std::vector<std::shared_ptr<const SectorOperator>> obs;
        for (const ObservableSpec& ob : s.observables)
          obs.push_back(std::make_shared<const SectorOperator>(
              basis, build_observable(p, ob)));
        const SectorVector psi0 = SectorVector::config_state(basis, occ);
        it = alone
                 .emplace(key, run_observable_batch(h, psi0, s.dt, s.steps,
                                                    obs, s.tol)
                                   .values)
                 .first;
      }
      ok = ok && it->second == res.values;
      std::snprintf(what, sizeof what, "expectation job %zu N=%.17g alone=%d",
                    i, res.values.empty() ? 0.0 : res.values[0],
                    it->second == res.values ? 1 : 0);
    } else if (s.kind == JobKind::kSpectral) {
      if (spectral_ref.empty()) {
        const HubbardParams& p = s.lattice;
        const std::uint64_t occ = hubbard_cdw_occupation(p);
        const SectorBasis basis = hubbard_sector_of(p, occ);
        const ScbSum hs = hubbard_scb(p);
        const SectorOperator h(basis, hs);
        const SectorVector psi0 = SectorVector::config_state(basis, occ);
        SpectralFunctionOptions so;
        so.max_moments = static_cast<std::size_t>(s.max_moments);
        SpectralFunction sf(h, so);
        sf.build(psi0.amps());
        std::vector<double> omega(s.w_points);
        const double dw = (s.w_max - s.w_min) /
                          static_cast<double>(s.w_points - 1);
        for (std::size_t k = 0; k < s.w_points; ++k)
          omega[k] = s.w_min + dw * static_cast<double>(k);
        spectral_ref.resize(s.w_points);
        sf.evaluate(omega, s.eta, spectral_ref);
      }
      double diff = res.spectral.size() == spectral_ref.size() ? 0.0 : 1.0;
      for (std::size_t k = 0; diff < 1.0 && k < spectral_ref.size(); ++k)
        diff = std::max(diff, std::abs(res.spectral[k] - spectral_ref[k]));
      ok = ok && diff <= 1e-12;
      std::snprintf(what, sizeof what, "spectral job %zu max|dA|=%.3g", i,
                    diff);
    }
    r.check(ok, what);
  }
}

void add_loop_layer_metrics(Metrics& m, const LoopStats& ls,
                            const std::vector<JobSpec>& jobs,
                            const SpanDigest& sp) {
  const auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  const std::vector<double> status = ms(sp.durations("bench.serve.status"));
  m.set("serve.status_ms_p50", percentile(status, 50.0), "ms");
  m.set("serve.submit_ms_p50",
        percentile(ms(sp.durations("bench.serve.submit")), 50.0), "ms");
  m.set("serve.fetch_ms_p50",
        percentile(ms(sp.durations("bench.serve.fetch")), 50.0), "ms");
  m.set("serve.queue_ms_p50", percentile(ms(ls.queue_s), 50.0), "ms");
  m.set("serve.queue_ms_p95", percentile(ms(ls.queue_s), 95.0), "ms");
  m.set("serve.run_ms_p50", percentile(ms(ls.run_s), 50.0), "ms");
  m.set("serve.run_ms_p95", percentile(ms(ls.run_s), 95.0), "ms");
  // Executor busy time over loop time: the share of the loop the kernels
  // take; the serving layers and client polling take the rest.
  m.set("serve.run_share", ls.wall_s > 0 ? sum(ls.run_s) / ls.wall_s : 0.0,
        "ratio");
  std::size_t expectation = 0;
  for (const JobSpec& s : jobs)
    if (s.kind == JobKind::kExpectation) ++expectation;
  const double passes =
      static_cast<double>(ls.after.batch_passes - ls.before.batch_passes);
  const double batched =
      static_cast<double>(ls.after.batched_jobs - ls.before.batched_jobs);
  const double hits =
      static_cast<double>(ls.after.cache_hits - ls.before.cache_hits);
  const double misses =
      static_cast<double>(ls.after.cache_misses - ls.before.cache_misses);
  m.set("serve.batch_passes", passes, "count");
  m.set("serve.batch_ratio",
        expectation ? batched / static_cast<double>(expectation) : 0.0,
        "ratio");
  m.set("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
        "ratio");
  m.set("serve.cache_misses", misses, "count");
  m.set("serve.polls_per_job",
        static_cast<double>(status.size()) / static_cast<double>(jobs.size()),
        "count");
  m.set("serve.max_queue_depth", static_cast<double>(ls.max_queue_depth),
        "count");
}

}  // namespace

Result run_serve_jobs(const Options& o) {
  std::filesystem::create_directories(o.out_dir);
  const bool tiny = o.size == Size::tiny;
  JobGenerator gen(o.seed, tiny);
  Result r;
  const std::string tag = std::to_string(getpid()) + "d";

  if (!o.trace) {
    // Set-up is timed over many daemon starts. Then each session is a fresh
    // daemon serving a fixed number of jobs, so its peak RSS (the daemon
    // keeps every finished job) does not grow with the host's speed;
    // sessions repeat until --seconds of loop time have passed.
    std::vector<double> start_s, rss_mb, job_s;
    for (int rep = 0; rep < 21; ++rep) {
      Daemon d;
      start_s.push_back(d.start(o, tag, false));
    }
    double loop_s = 0;
    do {
      const std::vector<JobSpec> jobs = session_jobs(gen, tiny);
      Daemon d;
      start_s.push_back(d.start(o, tag, false));
      const LoopStats ls = closed_loop(*d.client, jobs);
      d.stop();
      for (const JobSpec& s : jobs)
        r.input_digest = mix_digest(r.input_digest, &s.seed, sizeof s.seed);
      check_jobs(r, jobs, ls, o.perturb_reference);
      job_s.insert(job_s.end(), ls.job_s.begin(), ls.job_s.end());
      loop_s += ls.wall_s;
      rss_mb.push_back(static_cast<double>(d.usage.ru_maxrss) / 1024.0);
    } while (loop_s < o.seconds);
    r.metrics.set("setup_s", median(start_s), "s");
    add_job_metrics(r.metrics, job_s, loop_s);
    r.metrics.set("peak_rss_mb", median(rss_mb), "MiB");
    return r;
  }

  // Traced run: one session untraced, then the same jobs traced (fresh
  // daemons).
  const std::vector<JobSpec> jobs = session_jobs(gen, tiny);
  for (const JobSpec& s : jobs)
    r.input_digest = mix_digest(r.input_digest, &s.seed, sizeof s.seed);
  double untraced_s = 0;
  {
    Daemon d;
    d.start(o, tag, false);
    const LoopStats ls = closed_loop(*d.client, jobs);
    untraced_s = ls.wall_s;
    d.stop();
    check_jobs(r, jobs, ls, o.perturb_reference);
  }
  Daemon d;
  set_traced(true);
  {
    GECOS_SPAN("bench.serve.start");
    d.start(o, tag, true);
  }
  const LoopStats ls = closed_loop(*d.client, jobs);
  set_traced(false);
  d.stop();
  check_jobs(r, jobs, ls, o.perturb_reference);
  const SpanDigest sp = SpanDigest::read();
  r.metrics.set("serve.start_s", sp.total_s("bench.serve.start"), "s");
  add_loop_layer_metrics(r.metrics, ls, jobs, sp);
  r.metrics.set("telemetry.trace_overhead_frac", ls.wall_s / untraced_s - 1.0,
                "ratio");
  return r;
}

}  // namespace bench
