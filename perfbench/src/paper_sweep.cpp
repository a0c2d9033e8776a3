// paper_sweep: the researcher's batch job. A closed loop on one thread
// runs the paper's configuration matrix through the public driver
// sim::run_ntt_on_pim (a fresh device per call, as its users pay it), plus
// two bank-parallel sim::run_parallel_ntts calls, repeating the matrix for
// the run length. The traced run replays what run_ntt_on_pim does through
// the public functions it calls, with a span around each.
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "dram/config.h"
#include "harness.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "model/baselines.h"
#include "ntt/negacyclic.h"
#include "ntt/primes.h"
#include "ntt/reference.h"
#include "pim/device.h"
#include "pim/host.h"
#include "common/random.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "spans.h"

namespace nttpim::perfbench {

namespace {

constexpr std::size_t kSizes[] = {256, 512, 1024, 2048, 4096};
constexpr std::size_t kBuffers[] = {2, 4, 6};
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

/// One call of the matrix. banks == 0: run_ntt_on_pim; otherwise a
/// run_parallel_ntts(banks, config) call.
struct SweepCall {
  sim::NttRunConfig config;
  std::size_t banks = 0;
};

/// The fixed matrix: n x Nb x {cyclic, negacyclic} x {forward, inverse},
/// then two bank-parallel calls. Seeds are filled in per repetition.
std::vector<SweepCall> sweep_matrix() {
  std::vector<SweepCall> calls;
  for (std::size_t n : kSizes)
    for (std::size_t nb : kBuffers)
      for (bool negacyclic : {false, true})
        for (auto dir : {mapping::Direction::kForward,
                         mapping::Direction::kInverse}) {
          SweepCall c;
          c.config.n = n;
          c.config.num_buffers = nb;
          c.config.negacyclic = negacyclic;
          c.config.direction = dir;
          calls.push_back(c);
        }
  SweepCall four;
  four.config.n = 2048;
  four.config.num_buffers = 4;
  four.banks = 4;
  calls.push_back(four);
  SweepCall eight;
  eight.config.n = 1024;
  eight.config.num_buffers = 2;
  eight.banks = 8;
  calls.push_back(eight);
  return calls;
}

/// Index of the single-transform call with `config`'s shape (forward,
/// cyclic: the shape run_parallel_ntts maps).
std::size_t single_twin(const std::vector<SweepCall>& calls,
                        const sim::NttRunConfig& config) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto& c = calls[i].config;
    if (calls[i].banks == 0 && c.n == config.n &&
        c.num_buffers == config.num_buffers && !c.negacyclic &&
        c.direction == mapping::Direction::kForward)
      return i;
  }
  return calls.size();
}

bool same_stats(const sim::RunStats& a, const sim::RunStats& b) {
  return a.cycles == b.cycles && a.ns == b.ns &&
         a.activations == b.activations && a.precharges == b.precharges &&
         a.column_reads == b.column_reads &&
         a.column_writes == b.column_writes &&
         a.compute_ops == b.compute_ops && a.butterflies == b.butterflies &&
         a.param_loads == b.param_loads && a.refreshes == b.refreshes &&
         a.commands == b.commands && a.bus_busy_cycles == b.bus_busy_cycles &&
         a.channel_makespans == b.channel_makespans &&
         a.energy.total_nj() == b.energy.total_nj();
}

/// Set-up the sweep pays before its first call: resolve every parameter
/// set of the matrix (prime search, twiddle tables) and build one device.
void sweep_setup() {
  for (std::size_t n : kSizes) {
    const ntt::NttParams params(n, ntt::find_ntt_prime(n, 31));
    (void)params.twiddles();
    (void)params.inv_twiddles();
  }
  const pim::PimDevice device(dram::hbm2e_geometry(1), 2);
  (void)device.num_banks();
}

/// What a call's modeled results must repeat across repetitions: the
/// engine statistics (a run_parallel_ntts call reports only its makespan)
/// and, for a bank-parallel call, its single-bank reference cycles.
struct Repeatable {
  sim::RunStats stats;
  std::uint64_t single_bank_cycles = 0;
};

struct Modeled {
  double transforms = 0;
  double cycles = 0;
  double acts = 0;
  double energy_nj = 0;
};

// ---------------------------------------------------------------------------
// Traced replay of run_ntt_on_pim (sim/runner.cpp), call for call.

struct ReplayResult {
  sim::NttRunResult result;
  double resident_mb = 0;  ///< RSS growth across the device build
  bool apply_matches = false;
};

std::vector<std::uint32_t> reference_result(const sim::NttRunConfig& config,
                                            const ntt::NttParams& params,
                                            std::vector<std::uint32_t> x) {
  const bool forward = config.direction == mapping::Direction::kForward;
  if (forward && config.negacyclic)
    ntt::forward_negacyclic_ntt(x, params);
  else if (forward)
    ntt::forward_ntt(x, params);
  else if (config.negacyclic)
    ntt::inverse_negacyclic_ntt(x, params);
  else
    ntt::inverse_ntt(x, params);
  return x;
}

/// `apply_device` is a long-lived device with the call's Nb, used after the
/// driver span for the functional-only replay (PimBank::apply in trace
/// order, no timing).
ReplayResult replay_run(const sim::NttRunConfig& config, SpanLog& log,
                        pim::PimDevice& apply_device) {
  ReplayResult out;
  mapping::MappedNtt mapped;
  std::vector<std::uint32_t> to_load;
  std::vector<std::uint32_t> produced;
  {
    ScopedSpan driver(log, "sim.driver");
    const ntt::NttParams params(
        config.n,
        config.q != 0 ? config.q : ntt::find_ntt_prime(config.n, 31));
    Rng rng(config.seed);
    const std::vector<std::uint32_t> input = rng.residues(config.n, params.q());
    to_load = input;
    if (config.negacyclic && config.direction == mapping::Direction::kForward)
      ntt::geometric_scale(to_load, params.psi(), 1, params.q());

    const dram::DramGeometry geometry = dram::hbm2e_geometry(1);
    std::optional<pim::PimDevice> device;
    {
      const double before = resident_mb();
      ScopedSpan s(log, "dram.build");
      device.emplace(geometry, config.num_buffers);
      out.resident_mb = resident_mb() - before;
    }
    {
      ScopedSpan s(log, "pim.load");
      pim::load_polynomial(device->bank(0), 0, to_load);
    }
    mapping::NttJob job;
    job.direction = config.direction;
    job.negacyclic = config.negacyclic &&
                     config.direction == mapping::Direction::kInverse;
    mapping::MapperConfig mc;
    mc.num_buffers = config.num_buffers;
    mc.pipelined = config.pipelined;
    mc.in_place = config.in_place;
    mc.row_centric = config.row_centric;
    {
      ScopedSpan s(log, "mapping.map");
      mapped = mapping::RowCentricMapper(geometry, params, mc).map(job);
    }
    if (config.validate_trace) {
      ScopedSpan s(log, "mapping.validate");
      mapping::validate_trace(mapped.trace, geometry, config.num_buffers);
    }
    sim::EngineConfig ec;
    ec.timing = dram::hbm2e_timing().at_frequency(config.freq_mhz);
    ec.energy = config.energy;
    ec.enable_refresh = config.enable_refresh;
    sim::RunStats stats;
    {
      ScopedSpan s(log, "sim.engine");
      stats = sim::Engine(ec).run(*device, mapped.trace);
    }
    {
      ScopedSpan s(log, "pim.read");
      produced = pim::read_result(device->bank(0), mapped.result_base_row,
                                  config.n);
    }
    std::vector<std::uint32_t> expected;
    {
      ScopedSpan s(log, "ntt.reference");
      expected = reference_result(config, params, input);
    }
    out.result.stats = stats;
    out.result.trace_counts = mapping::count_commands(mapped.trace);
    out.result.verified = produced == expected;
    out.result.latency_us = stats.us();
    out.result.energy_nj = stats.energy.total_nj();
    out.result.q = params.q();
    out.result.trace_length = mapped.trace.size();
    ScopedSpan s(log, "dram.free");
    device.reset();
  }
  // Functional-only replay of the same trace (outside the driver span): it
  // must land on the memory image the engine produced.
  pim::load_polynomial(apply_device.bank(0), 0, to_load);
  {
    ScopedSpan s(log, "pim.apply");
    for (const dram::Command& cmd : mapped.trace)
      apply_device.bank(0).apply(cmd);
  }
  out.apply_matches = pim::read_result(apply_device.bank(0),
                                       mapped.result_base_row,
                                       config.n) == produced;
  return out;
}

Outcome run_traced(const Options& options,
                   const std::vector<SweepCall>& calls) {
  Outcome out;
  SpanLog log(1);
  std::map<std::size_t, std::unique_ptr<pim::PimDevice>> apply_devices;
  for (std::size_t nb : kBuffers)
    apply_devices[nb] =
        std::make_unique<pim::PimDevice>(dram::hbm2e_geometry(1), nb);

  double untraced_s = 0;
  double calls_done = 0;
  double resident_mb_sum = 0;
  double commands = 0;
  double col = 0, acts = 0, bus_busy = 0, cycles = 0, refreshes = 0;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0;
       rep == 0 || seconds_between(start, Clock::now()) < options.seconds;
       ++rep) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      if (calls[i].banks != 0) continue;  // the replay covers single calls
      sim::NttRunConfig config = calls[i].config;
      config.seed = mix_seed(options.seed, rep * calls.size() + i);
      const auto t0 = Clock::now();
      const sim::NttRunResult direct = sim::run_ntt_on_pim(config);
      untraced_s += seconds_between(t0, Clock::now());
      const ReplayResult replay =
          replay_run(config, log, *apply_devices.at(config.num_buffers));
      const auto& r = replay.result;
      const bool same =
          same_stats(direct.stats, r.stats) && direct.verified &&
          r.verified && direct.q == r.q &&
          direct.trace_length == r.trace_length &&
          direct.trace_counts.total == r.trace_counts.total &&
          direct.trace_counts.acts == r.trace_counts.acts &&
          direct.latency_us == r.latency_us &&
          direct.energy_nj == r.energy_nj;
      std::ostringstream what;
      what << "replayed run_ntt_on_pim(n=" << config.n
           << ", Nb=" << config.num_buffers << ") matches the driver";
      out.check(same, what.str());
      out.check(replay.apply_matches,
                "functional-only replay reproduces the transform");
      ++out.attempted;
      if (!same || !replay.apply_matches) ++out.failed;
      calls_done += 1;
      resident_mb_sum += replay.resident_mb;
      commands += static_cast<double>(r.stats.commands);
      col += static_cast<double>(r.stats.column_reads + r.stats.column_writes);
      acts += static_cast<double>(r.stats.activations);
      bus_busy += static_cast<double>(r.stats.bus_busy_cycles);
      cycles += static_cast<double>(r.stats.cycles);
      refreshes += static_cast<double>(r.stats.refreshes);
    }
  }

  const LayerTimes t = layer_times(log);
  auto mean_us = [&](const char* name) { return mean_self_us(t, name); };
  const double traced_s = total_us(t, "sim.driver") / 1e6;
  out.add("dram.build_ms_per_bank", mean_us("dram.build") / 1e3, "ms");
  out.add("dram.resident_mb_per_bank", resident_mb_sum / calls_done, "MiB");
  out.add("mapping.map_us", mean_us("mapping.map"), "us");
  out.add("mapping.validate_us", mean_us("mapping.validate"), "us");
  out.add("sim.engine_us_per_pass", mean_us("sim.engine"), "us");
  out.add("sim.engine_ns_per_cmd", total_us(t, "sim.engine") * 1e3 / commands,
          "ns");
  out.add("sim.cmds_per_pass", commands / calls_done, "count");
  out.add("sim.driver_self_us", mean_us("sim.driver"), "us");
  out.add("pim.apply_us_per_pass", mean_us("pim.apply"), "us");
  out.add("pim.load_us", mean_us("pim.load"), "us");
  out.add("pim.read_us", mean_us("pim.read"), "us");
  out.add("ntt.reference_us", mean_us("ntt.reference"), "us");
  out.add("model.col_per_act", col / acts, "ratio");
  out.add("model.bus_utilization", bus_busy / cycles, "ratio");
  out.add("model.refreshes", refreshes / calls_done, "count");
  out.add("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%");
  out.note("traced calls: " + std::to_string(static_cast<long>(calls_done)) +
           " (each also run untraced through run_ntt_on_pim)");

  if (!options.trace_out.empty()) {
    const auto epoch = log.spans().empty() ? Clock::now()
                                           : log.spans().front().start;
    const bool ok = write_trace_file(
        options.trace_out, {&log}, [epoch](Clock::time_point tp) {
          return std::chrono::duration_cast<std::chrono::nanoseconds>(tp -
                                                                      epoch)
              .count();
        });
    out.check(ok, "trace written to " + options.trace_out);
  }
  return out;
}

}  // namespace

double paper_latency_err_pct() {
  double sum = 0;
  int points = 0;
  for (std::size_t nb : kBuffers)
    for (std::size_t n : kSizes) {
      sim::NttRunConfig config;
      config.n = n;
      config.num_buffers = nb;
      const double sim_us = sim::run_ntt_on_pim(config).latency_us;
      const double paper_us = *model::paper_nttpim(nb).latency_at(n);
      sum += std::abs(sim_us - paper_us) / paper_us;
      ++points;
    }
  return 100.0 * sum / points;
}

Outcome run_paper_sweep(const Options& options) {
  const std::vector<SweepCall> calls = sweep_matrix();

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    sweep_setup();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  if (options.trace) return run_traced(options, calls);

  Outcome out;
  std::vector<double> latency_ms;  // every call, for the p99 diagnostic
  std::vector<Slice> slices;       // one per matrix repetition
  std::vector<Repeatable> first;   // repetition 0, per call
  std::vector<std::uint64_t> trace_lengths(calls.size(), 0);
  Modeled modeled;  // repetition 0; later repetitions must repeat it
  std::uint64_t reps = 0;

  const auto start = Clock::now();
  while (reps == 0 || seconds_between(start, Clock::now()) < options.seconds) {
    std::vector<double> rep_ms;
    double transforms = 0;
    double commands = 0;
    const double cpu0 = process_cpu_s();
    const auto rep_start = Clock::now();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      sim::NttRunConfig config = calls[i].config;
      config.seed = mix_seed(options.seed, reps * calls.size() + i);
      bool ok = false;
      Repeatable model;
      const auto t0 = Clock::now();
      if (calls[i].banks == 0) {
        const sim::NttRunResult r = sim::run_ntt_on_pim(config);
        rep_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        ok = r.verified;
        model.stats = r.stats;
        trace_lengths[i] = r.trace_length;
        transforms += 1;
        commands += static_cast<double>(r.stats.commands);
        if (reps == 0) {
          modeled.transforms += 1;
          modeled.cycles += static_cast<double>(r.stats.cycles);
          modeled.acts += static_cast<double>(r.trace_counts.acts);
          modeled.energy_nj += r.energy_nj;
        }
      } else {
        const sim::ParallelRunResult r =
            sim::run_parallel_ntts(calls[i].banks, config);
        rep_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        ok = r.all_verified;
        model.stats.cycles = r.cycles;
        model.single_bank_cycles = r.single_bank_cycles;
        // banks transforms in parallel plus the single-bank reference run.
        const double ran = static_cast<double>(calls[i].banks + 1);
        transforms += ran;
        commands +=
            ran * static_cast<double>(
                      trace_lengths[single_twin(calls, calls[i].config)]);
      }
      ++out.attempted;
      if (!ok) ++out.failed;
      if (reps == 0)
        first.push_back(model);
      else
        out.check(same_stats(model.stats, first[i].stats) &&
                      model.single_bank_cycles == first[i].single_bank_cycles,
                  "modeled statistics repeat across repetitions");
    }
    const double wall = seconds_between(rep_start, Clock::now());
    Slice slice;
    slice.ops_per_s = transforms / wall;
    slice.p50_ms = percentile(rep_ms, 50);
    slice.p90_ms = percentile(rep_ms, 90);
    slice.cpu_ms_per_op = (process_cpu_s() - cpu0) * 1e3 / transforms;
    slice.cmds_per_s = commands / wall;
    slices.push_back(slice);
    latency_ms.insert(latency_ms.end(), rep_ms.begin(), rep_ms.end());
    ++reps;
  }

  const Slice host = median_slice(slices);
  const double err = paper_latency_err_pct();
  const double ok_calls = static_cast<double>(out.attempted - out.failed);
  out.add("ops_per_s", host.ops_per_s, "1/s");
  out.add("latency_p50_ms", host.p50_ms, "ms");
  out.add("latency_p90_ms", host.p90_ms, "ms");
  out.add("success_rate", ok_calls / static_cast<double>(out.attempted),
          "ratio");
  out.add("cpu_ms_per_op", host.cpu_ms_per_op, "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("setup_s", median(setups), "s");
  out.add("sim_cmds_per_s", host.cmds_per_s, "1/s");
  out.add("modeled_cycles_per_op", modeled.cycles / modeled.transforms,
          "cycles");
  out.add("modeled_acts_per_op", modeled.acts / modeled.transforms, "count");
  out.add("modeled_energy_uj_per_op",
          modeled.energy_nj / 1e3 / modeled.transforms, "uJ");
  out.add("paper_latency_err_pct", err, "%");

  std::ostringstream comp;
  comp << "composition: " << calls.size() << " calls per matrix ("
       << calls.size() - 2 << " run_ntt_on_pim: n=256..4096 x Nb=2,4,6 x "
       << "cyclic/negacyclic x fwd/inv; run_parallel_ntts 4x2048 Nb=4, "
       << "8x1024 Nb=2)";
  out.note(comp.str());
  out.note("repetitions: " + std::to_string(reps) +
           ", driver calls: " + std::to_string(out.attempted));
  std::ostringstream per_rep;
  per_rep << "per repetition ops/s:";
  for (const Slice& r : slices) per_rep << " " << r.ops_per_s;
  out.note(per_rep.str());
  out.note("latency_p99_ms: " + std::to_string(percentile(latency_ms, 99)) +
           " over " + std::to_string(latency_ms.size()) + " calls");
  return out;
}

}  // namespace nttpim::perfbench
