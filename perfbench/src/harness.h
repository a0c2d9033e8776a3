// Shared plumbing of the benchmark binary: run options, the outcome every
// workload reports (metrics, counts, consistency checks), host clocks,
// CPU/RSS probes and the small statistics the metrics are built from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nttpim::perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< per-layer run instead of the end-to-end run
  std::string trace_out;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count ops (see
/// README.md for what an op is per workload); `correct` also covers the
/// run's consistency checks. `notes` are printed as diagnostics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Record a failed consistency check: the run is reported as incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

Outcome run_paper_sweep(const Options& options);
Outcome run_serve_open(const Options& options);
Outcome run_serve_backlog(const Options& options);

/// Mean |simulated - paper| / paper latency over the 15 Table-III points
/// (n = 256..4096 x Nb = 2, 4, 6) of model::paper_nttpim, in percent.
double paper_latency_err_pct();

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Process CPU time (user + sys, all threads), seconds.
double process_cpu_s();
/// CPU time of the calling thread, seconds.
double thread_cpu_s();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();
/// Current resident set size, MiB.
double resident_mb();

/// Host-time figures of one slice of a measured window: a matrix
/// repetition, a staged round, or one second of arrivals. The end-to-end
/// host metrics are medians over slices, so a slow phase of the machine
/// that covers less than half the run does not move them.
struct Slice {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double cpu_ms_per_op = 0;
  double cmds_per_s = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[i];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Field-wise median over slices.
inline Slice median_slice(const std::vector<Slice>& slices) {
  auto field = [&](double Slice::*f) {
    std::vector<double> v;
    for (const Slice& s : slices) v.push_back(s.*f);
    return median(v);
  };
  return {field(&Slice::ops_per_s), field(&Slice::p50_ms),
          field(&Slice::p90_ms), field(&Slice::cpu_ms_per_op),
          field(&Slice::cmds_per_s)};
}

/// Independent 64-bit stream seed for item `stream` of run seed `seed`
/// (splitmix64 finalizer), so inputs depend only on (seed, item).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 64-bit FNV-1a over the words of a polynomial: the benchmark keeps this
/// digest of each served result instead of the result itself, so its own
/// memory stays out of the peak-RSS figure.
inline std::uint64_t digest(std::span<const std::uint32_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint32_t w : words) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace nttpim::perfbench
