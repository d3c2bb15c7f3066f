// perfbench_runner: runs one workload for a given time and prints one JSON
// line of results.
//
//   perfbench_runner --workload <online_il|fleet_thermal|gpu_enmpc> --seed <n>
//                    --seconds <s> --trace <0|1> [--spans-out <path>]
//
// A run is a sequence of laps, each a full set-up followed by one timed
// closed loop, repeated until the timed phases add up to --seconds (and at
// least kMinLaps laps ran).  Untraced (--trace 0) it reports the end-to-end
// metrics, each the median over laps.  Traced (--trace 1) it alternates
// untraced and traced laps: the traced laps give the per-layer metrics, the
// two kinds together give the tracing overhead, and the spans go to
// --spans-out.  Every lap must simulate exactly what the first one did, and
// with the default seed what the pinned outcome records; each decision of a
// lap that fails either check counts as failed, and the run then exits 1.
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"
#include "workload.h"

namespace perfbench {
namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Laps a run measures at least: untraced runs take the median of three,
/// traced runs alternate two untraced and two traced laps.
constexpr std::size_t kMinLaps = 3;
constexpr std::size_t kMinTracedRunLaps = 2;  ///< of each kind
/// Past this much wall time no new lap starts, whatever --seconds asks.
constexpr double kMaxRunSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<online_il|fleet_thermal|gpu_enmpc> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <path>]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, a.seed)) return false;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600) return false;
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return false;
      a.trace = n == 1;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pins the calling thread to one CPU.  A lone busy thread otherwise stays
/// on whichever CPU the scheduler first gave it, and on a shared host the
/// CPUs' speeds differ by up to a third for minutes at a time; pinning each
/// single-threaded lap to the next allowed CPU makes every run sample them
/// all.  Best effort: if pinning fails the thread keeps its affinity.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Peak RSS of this process image in MiB: VmHWM, not getrusage's ru_maxrss,
/// which also counts the pre-exec image of whatever spawned the runner.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Fields in which `got` differs from `want` (empty when identical).
std::string diff(const Outcome& got, const Outcome& want) {
  std::string d;
  const auto field = [&d](const char* name, std::uint64_t g, std::uint64_t w) {
    if (g == w) return;
    char buf[128];
    std::snprintf(buf, sizeof buf, " %s=0x%llx (want 0x%llx)", name,
                  static_cast<unsigned long long>(g), static_cast<unsigned long long>(w));
    d += buf;
  };
  field("decisions", got.decisions, want.decisions);
  field("oracle_searches", got.oracle_searches, want.oracle_searches);
  field("retrains", got.retrains, want.retrains);
  field("clamped", got.clamped, want.clamped);
  field("deadline_misses", got.deadline_misses, want.deadline_misses);
  field("energy_ratio_bits", to_bits(got.energy_ratio), to_bits(want.energy_ratio));
  field("digest", got.digest, want.digest);
  return d;
}

struct Lap {
  bool traced = false;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  Outcome outcome;
  std::vector<std::pair<std::string, double>> layers;
};

/// Median over the completed laps of one kind of their timed wall time, or
/// of their timed CPU time.
double lap_time(const std::vector<Lap>& laps, bool traced, bool cpu) {
  std::vector<double> xs;
  for (const Lap& l : laps)
    if (l.traced == traced && l.timed_s > 0.0) xs.push_back(cpu ? l.cpu_s : l.timed_s);
  return median(xs);
}

/// Units of every reported metric (the same as BENCHMARK.json's).
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u{
      {"setup_s", "s"},
      {"decisions_per_s", "1/s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},
      {"energy_ratio", "ratio"},
      {"oracle.searches", "count"},
      {"oracle.search_us", "us"},
      {"oracle.collect_s", "s"},
      {"oracle.lookups", "count"},
      {"oracle.hit_ratio", "ratio"},
      {"il.train_offline_s", "s"},
      {"il.retrains", "count"},
      {"il.retrain_rows", "count"},
      {"il.retrain_ms_p50", "ms"},
      {"il.retrain_share", "ratio"},
      {"online_il.step_us_p50", "us"},
      {"online_il.step_us_p99", "us"},
      {"online_il.step_s", "s"},
      {"runner.residual_s", "s"},
      {"engine.scenarios", "count"},
      {"engine.scenario_ms_p50", "ms"},
      {"engine.busy_s", "s"},
      {"engine.utilization", "ratio"},
      {"engine.queue_wait_ms_p50", "ms"},
      {"fleet.generate_s", "s"},
      {"fleet.aggregate_s", "s"},
      {"thermal.clamped", "count"},
      {"thermal.hook_s", "s"},
      {"nmpc.fit_s", "s"},
      {"nmpc.decision_evals", "count"},
      {"gpu.frames", "count"},
      {"gpu.deadline_misses", "count"},
      {"nmpc.step_ns_p50", "ns"},
      {"decisions", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return u;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "online_il") {
    w = make_online_il(args.seed);
  } else if (args.workload == "fleet_thermal") {
    w = make_fleet_thermal(args.seed);
  } else if (args.workload == "gpu_enmpc") {
    w = make_gpu_enmpc(args.seed);
  } else {
    return usage("unknown workload");
  }

  std::vector<std::string> errors;
  std::vector<Lap> laps;
  std::vector<Span> spans;
  const std::int64_t run_start = now_ns();
  std::size_t untraced = 0, traced = 0;
  double timed_total = 0.0;
  // Peak RSS over the first kMinLaps laps: a fixed amount of work, so the
  // figure does not drift with how many laps the host's speed allowed.
  double rss_mb = 0.0;
  // Only laps on the calling thread alone move from CPU to CPU: with engine
  // workers the scheduler spreads the threads itself, and pinning them did
  // not steady the figures.
  const std::vector<int> cpus = w->workers() == 0 ? allowed_cpus() : std::vector<int>{};
  for (std::uint32_t index = 0;; ++index) {
    const bool enough =
        timed_total >= args.seconds &&
        (args.trace ? untraced >= kMinTracedRunLaps && traced >= kMinTracedRunLaps
                    : untraced >= kMinLaps);
    const bool out_of_time = 1e-9 * static_cast<double>(now_ns() - run_start) > kMaxRunSeconds &&
                             untraced >= 1 && (!args.trace || traced >= 1);
    if (enough || out_of_time) break;
    Lap lap;
    lap.traced = args.trace && index % 2 == 1;
    // An untraced lap and the traced lap after it run on the same CPU.
    if (!cpus.empty()) pin_to(cpus[(args.trace ? index / 2 : index) % cpus.size()]);
    std::unique_ptr<Probe> probe = lap.traced ? std::make_unique<Probe>(index) : nullptr;
    try {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(probe.get(), "setup");
        w->setup(probe.get());
      }
      const std::int64_t t1 = now_ns();
      const double cpu0 = cpu_seconds();
      {
        ScopedSpan span(probe.get(), "timed");
        lap.outcome = w->run(probe.get());
      }
      lap.cpu_s = cpu_seconds() - cpu0;
      lap.timed_s = 1e-9 * static_cast<double>(now_ns() - t1);
      lap.setup_s = 1e-9 * static_cast<double>(t1 - t0);
      w->teardown();
    } catch (const std::exception& e) {
      errors.push_back("lap " + std::to_string(index) + " threw: " + e.what());
      laps.push_back(std::move(lap));
      break;
    }
    if (probe) {
      lap.layers = layer_metrics(*probe, lap.timed_s, w->workers());
      std::vector<Span> s = probe->take_spans();
      spans.insert(spans.end(), s.begin(), s.end());
    }
    std::printf("lap %u%s: setup %.3f s, timed %.3f s, cpu %.3f s, %llu decisions\n", index,
                lap.traced ? " (traced)" : "", lap.setup_s, lap.timed_s, lap.cpu_s,
                static_cast<unsigned long long>(lap.outcome.decisions));
    timed_total += lap.timed_s;
    ++(lap.traced ? traced : untraced);
    laps.push_back(std::move(lap));
    if (laps.size() == kMinLaps) rss_mb = peak_rss_mb();
  }
  if (laps.size() < kMinLaps) rss_mb = peak_rss_mb();

  // Output check: every lap equals the first; the first equals the pinned
  // outcome when the seed is the default one.
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < laps.size(); ++i) {
    const Outcome& o = laps[i].outcome;
    attempted += w->decisions_per_lap();
    std::string why;
    const auto note = [&why](const std::string& s) { why += (why.empty() ? "" : "; ") + s; };
    if (!o.errors.empty()) note(o.errors.front());
    if (o.decisions != w->decisions_per_lap()) note("decisions != trace length");
    const std::string d = i > 0 ? diff(o, laps[0].outcome)
                                : args.seed == kDefaultSeed ? diff(o, w->pinned()) : "";
    if (!d.empty()) note((i > 0 ? "differs from lap 0:" : "differs from the pinned outcome:") + d);
    if (!why.empty()) {
      errors.push_back("lap " + std::to_string(i) + ": " + why);
      failed += w->decisions_per_lap();
    }
  }
  w->check_invariants(errors);
  for (const std::string& e : errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());

  std::vector<std::pair<std::string, double>> metrics;
  const auto rate = [&](bool traced_laps) {
    const double t = lap_time(laps, traced_laps, false);
    return t > 0.0 ? static_cast<double>(w->decisions_per_lap()) / t : 0.0;
  };
  if (!args.trace) {
    std::vector<double> setups;
    for (const Lap& l : laps)
      if (l.timed_s > 0.0) setups.push_back(l.setup_s);
    metrics = {
        {"setup_s", median(setups)},
        {"decisions_per_s", rate(false)},
        {"cpu_s", lap_time(laps, false, true)},
        {"peak_rss_mb", rss_mb},
        {"energy_ratio", laps.empty() ? 0.0 : laps[0].outcome.energy_ratio},
    };
  } else {
    std::map<std::string, std::vector<double>> by_name;
    for (const Lap& l : laps)
      for (const auto& [name, v] : l.layers) by_name[name].push_back(v);
    for (const Lap& l : laps) {
      if (!l.traced) continue;
      for (const auto& [name, v] : l.layers) metrics.emplace_back(name, median(by_name[name]));
      break;
    }
    const double untraced_rate = rate(false);
    metrics.emplace_back("trace.overhead_frac",
                         untraced_rate > 0.0 ? 1.0 - rate(true) / untraced_rate : 0.0);
    if (!args.spans_out.empty() && !write_spans(args.spans_out, spans))
      errors.push_back("cannot write spans to " + args.spans_out);
  }

  const bool correct = errors.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), v, units().at(metrics[i].first).c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return perfbench::usage("bad arguments");
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
