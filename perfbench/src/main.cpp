// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload <paper_sweep|serve_open|serve_backlog> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints diagnostics, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output or a consistency check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "harness.h"

namespace nttpim::perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace nttpim::perfbench

namespace {

using nttpim::perfbench::Metric;
using nttpim::perfbench::Options;
using nttpim::perfbench::Outcome;

// The metric names and units BENCHMARK.json declares, in its order.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"success_rate", "ratio"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
    {"sim_cmds_per_s", "1/s"},
    {"modeled_cycles_per_op", "cycles"},
    {"modeled_acts_per_op", "count"},
    {"modeled_energy_uj_per_op", "uJ"},
    {"paper_latency_err_pct", "%"},
};

const std::pair<const char*, const char*> kPerLayer[] = {
    {"dram.build_ms_per_bank", "ms"},
    {"dram.resident_mb_per_bank", "MiB"},
    {"mapping.map_us", "us"},
    {"mapping.validate_us", "us"},
    {"mapping.plan_hit_ratio", "ratio"},
    {"mapping.plan_misses", "count"},
    {"sim.engine_us_per_pass", "us"},
    {"sim.engine_ns_per_cmd", "ns"},
    {"sim.cmds_per_pass", "count"},
    {"pim.apply_us_per_pass", "us"},
    {"pim.load_us", "us"},
    {"pim.read_us", "us"},
    {"fhe.wave_us", "us"},
    {"fhe.estimate_us", "us"},
    {"fhe.cost_model_err_pct", "%"},
    {"fhe.pointwise_us", "us"},
    {"service.admission_wait_us", "us"},
    {"service.former_residency_us", "us"},
    {"service.shard_queue_wait_us", "us"},
    {"service.execute_us", "us"},
    {"service.completion_us", "us"},
    {"service.wave_occupancy", "ratio"},
    {"service.failed", "count"},
    {"service.rejected", "count"},
    {"model.col_per_act", "ratio"},
    {"model.bus_utilization", "ratio"},
    {"model.refreshes", "count"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"telemetry.events", "count"},
    {"telemetry.dropped", "count"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper_sweep|serve_open|serve_backlog> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               argv0);
  return 2;
}

/// Emit the declared metric list in order. A per-layer metric the workload
/// does not exercise reads 0 (listed in the diagnostics); a missing
/// end-to-end metric is a benchmark bug.
template <std::size_t N>
std::string render(Outcome& out,
                   const std::pair<const char*, const char*> (&declared)[N],
                   bool zero_fill) {
  std::map<std::string, Metric> have;
  for (const Metric& m : out.metrics) have[m.name] = m;
  std::string json = "{";
  std::string idle;
  for (std::size_t i = 0; i < N; ++i) {
    auto it = have.find(declared[i].first);
    double value = 0;
    if (it != have.end()) {
      value = it->second.value;
      out.check(it->second.unit == declared[i].second,
                std::string("unit of ") + declared[i].first);
    } else if (zero_fill) {
      idle += std::string(idle.empty() ? "" : ", ") + declared[i].first;
    } else {
      out.check(false, std::string("metric reported: ") + declared[i].first);
    }
    out.check(std::isfinite(value),
              std::string("finite value: ") + declared[i].first);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", declared[i].first,
                  std::isfinite(value) ? value : 0.0, declared[i].second);
    json += buf;
  }
  if (!idle.empty()) out.note("not exercised by this workload (0): " + idle);
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage(argv[0]);
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);

  Outcome out;
  try {
    if (options.workload == "paper_sweep")
      out = nttpim::perfbench::run_paper_sweep(options);
    else if (options.workload == "serve_open")
      out = nttpim::perfbench::run_serve_open(options);
    else if (options.workload == "serve_backlog")
      out = nttpim::perfbench::run_serve_backlog(options);
    else
      return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::string metrics = options.trace
                                  ? render(out, kPerLayer, /*zero_fill=*/true)
                                  : render(out, kEndToEnd, false);
  if (out.attempted == 0) out.check(false, "at least one op attempted");
  if (out.failed > 0)
    out.check(false, std::to_string(out.failed) + " ops failed");
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const Metric& m : out.metrics)
    std::printf("# %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
