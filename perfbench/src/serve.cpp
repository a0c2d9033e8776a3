// serve_open and serve_backlog: the serving stack (service::NttService on
// one PIM shard of 8 banks) under an open-loop Poisson arrival stream and
// under a staged fixed backlog. Devices are built and plan caches warmed in
// set-up; every output is checked after the timed window. The traced run
// builds the shard through a descriptor whose factory returns the
// TracedBackend decorator, then replays a sample of its waves.
#include <array>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "dram/config.h"
#include "fhe/pim_backend.h"
#include "harness.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "ntt/negacyclic.h"
#include "ntt/params.h"
#include "ntt/poly.h"
#include "ntt/primes.h"
#include "service/ntt_service.h"
#include "spans.h"
#include "telemetry/chrome_trace.h"
#include "traced_backend.h"

namespace nttpim::perfbench {

namespace {

constexpr double kFreqMhz = 1200.0;
constexpr std::size_t kBanks = 8;
constexpr std::size_t kBuffers = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// serve_open's offered load: about a sixth of the shard's capacity. At
/// 800 req/s (a third) queueing amplified the host's slow phases into
/// p50/p90 swings of 2-4x between runs.
constexpr double kOpenRate = 400.0;
/// serve_open fails when the generator fell behind its schedule: half of
/// its arrivals later than this. (Single late arrivals -- p99 reached
/// 5-7 ms when the host preempted the VM -- are measured, not failed.)
constexpr double kMaxMedianLateUs = 1000.0;
/// serve_backlog: request blocks per staged round (160 requests each).
constexpr std::size_t kBacklogBlocks = 4;
// Stream tags separating the seed's uses (coefficients use the item index).
constexpr std::uint64_t kArrivalStream = 1ULL << 40;
constexpr std::uint64_t kOrderStream = 2ULL << 40;
constexpr std::uint64_t kFixedOrderSeed = 0x5eed;

using ParamsPtr = std::shared_ptr<const ntt::NttParams>;

struct Job {
  std::size_t param = 0;  ///< index into Workload::params
  bool inverse = false;   ///< transform direction
  bool multiply = false;  ///< negacyclic product instead of a transform
};

/// Commands and ACTs of one mapped transform, as PimBackend's plan cache
/// maps it (Nb = 4, negacyclic folded into the inverse).
struct PlanCounts {
  double commands = 0;
  double acts = 0;
};

struct Workload {
  std::size_t channels = 1;
  std::vector<ParamsPtr> params;
  std::vector<std::array<PlanCounts, 2>> counts;  ///< [param][inverse]
  std::vector<Job> block;  ///< the fixed composition unit

  PlanCounts job_counts(const Job& j) const {
    const auto& c = counts[j.param];
    if (!j.multiply) return c[j.inverse];
    return {2 * c[0].commands + c[1].commands, 2 * c[0].acts + c[1].acts};
  }
};

void add_counts(Workload& w) {
  for (const ParamsPtr& p : w.params) {
    std::array<PlanCounts, 2> c;
    for (bool inverse : {false, true}) {
      mapping::MapperConfig mc;
      mc.num_buffers = kBuffers;
      mapping::NttJob job;
      job.direction =
          inverse ? mapping::Direction::kInverse : mapping::Direction::kForward;
      job.negacyclic = inverse;
      const auto mapped =
          mapping::RowCentricMapper(dram::hbm2e_geometry(1), *p, mc).map(job);
      const auto tc = mapping::count_commands(mapped.trace);
      c[inverse] = {static_cast<double>(tc.total),
                    static_cast<double>(tc.acts)};
    }
    w.counts.push_back(c);
  }
}

/// serve_open: one modulus per size; per 16 requests 6 x n=256, 8 x 1024,
/// 2 x 4096 (3:4:1), half forward and half inverse. Transforms only.
Workload open_workload() {
  Workload w;
  const std::size_t sizes[] = {256, 1024, 4096};
  const std::size_t per_block[] = {6, 8, 2};
  for (std::size_t s = 0; s < 3; ++s) {
    w.params.push_back(std::make_shared<const ntt::NttParams>(
        sizes[s], ntt::find_ntt_prime(sizes[s], 31)));
    for (std::size_t k = 0; k < per_block[s]; ++k)
      w.block.push_back({s, k % 2 == 1, false});
  }
  add_counts(w);
  return w;
}

/// serve_backlog: 4 moduli per size (12 parameter sets) on a 2-channel
/// device; per modulus 15 x n=256, 20 x 1024, 5 x 4096, of which a fifth
/// are multiplies and the transforms half forward, half inverse.
Workload backlog_workload() {
  Workload w;
  w.channels = 2;
  const std::size_t sizes[] = {256, 1024, 4096};
  const std::size_t transforms[] = {12, 16, 4};
  const std::size_t multiplies[] = {3, 4, 1};
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::uint32_t q : ntt::find_ntt_primes(sizes[s], 31, 4)) {
      const std::size_t p = w.params.size();
      w.params.push_back(std::make_shared<const ntt::NttParams>(sizes[s], q));
      for (std::size_t k = 0; k < transforms[s]; ++k)
        w.block.push_back({p, k % 2 == 1, false});
      for (std::size_t k = 0; k < multiplies[s]; ++k)
        w.block.push_back({p, false, true});
    }
  }
  add_counts(w);
  return w;
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

std::vector<std::uint32_t> operand(const ntt::NttParams& p,
                                   std::uint64_t item_seed, int which) {
  Rng rng(mix_seed(item_seed, static_cast<std::uint64_t>(which)));
  return rng.residues(p.n(), p.q());
}

/// Reference result of `job` on its seeded inputs (ntt reference kernels).
std::vector<std::uint32_t> reference(const ntt::NttParams& p, const Job& job,
                                     std::uint64_t item_seed) {
  std::vector<std::uint32_t> a = operand(p, item_seed, 0);
  if (!job.multiply) {
    if (job.inverse)
      ntt::inverse_negacyclic_ntt(a, p);
    else
      ntt::forward_negacyclic_ntt(a, p);
    return a;
  }
  std::vector<std::uint32_t> b = operand(p, item_seed, 1);
  ntt::forward_negacyclic_ntt(a, p);
  ntt::forward_negacyclic_ntt(b, p);
  std::vector<std::uint32_t> c = ntt::pointwise_mul(a, b, p.q());
  ntt::inverse_negacyclic_ntt(c, p);
  return c;
}

/// O(n^2) negacyclic product in Z_q[X]/(X^n + 1), sharing no NTT code.
std::vector<std::uint32_t> schoolbook(const std::vector<std::uint32_t>& a,
                                      const std::vector<std::uint32_t>& b,
                                      std::uint32_t q) {
  const std::size_t n = a.size();
  std::vector<std::uint64_t> pos(n, 0), neg(n, 0);  // < n * q < 2^44
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t prod = std::uint64_t{a[i]} * b[j] % q;
      if (i + j < n)
        pos[i + j] += prod;
      else
        neg[i + j - n] += prod;
    }
  std::vector<std::uint32_t> c(n);
  for (std::size_t k = 0; k < n; ++k)
    c[k] = static_cast<std::uint32_t>((pos[k] % q + q - neg[k] % q) % q);
  return c;
}

/// One served request's outcome, written by the completion callback on the
/// shard thread and published through `done_flag`.
struct Slot {
  std::atomic<bool> done_flag{false};
  Clock::time_point submitted{};
  Clock::time_point done{};
  bool ok = false;
  std::vector<std::uint32_t> result;
  std::uint64_t digest = 0;
};

service::Callback completion(Slot& slot) {
  return [&slot](std::vector<std::uint32_t>&& result, std::exception_ptr err) {
    slot.done = Clock::now();
    slot.ok = err == nullptr;
    slot.result = std::move(result);
    slot.done_flag.store(true, std::memory_order_release);
  };
}

/// The service with a handle on its shard backend. The descriptor factory
/// fills the handle on the shard thread; NttService's constructor returns
/// only after it ran.
struct Shard {
  fhe::PimBackend* pim = nullptr;
  TracedBackend* traced = nullptr;
  double build_ms = 0;     ///< PimBackend construction, on the shard thread
  double resident_mb = 0;  ///< RSS growth across it
  std::unique_ptr<service::NttService> svc;  // last: destroyed first
};

std::unique_ptr<Shard> build_shard(const Workload& w, bool traced,
                                   std::size_t sample_every) {
  auto shard = std::make_unique<Shard>();
  service::ServiceConfig cfg;
  cfg.backend.banks_per_shard = kBanks;
  cfg.backend.channels_per_shard = w.channels;
  cfg.backend.num_buffers = kBuffers;
  service::BackendDescriptor d = service::make_pim_descriptor(
      kBanks, kBuffers, kFreqMhz, 1.0, w.channels);
  Shard* raw = shard.get();
  d.factory = [raw, traced, sample_every,
               make = d.factory]() -> std::unique_ptr<fhe::NttBackend> {
    const double rss0 = resident_mb();
    const auto t0 = Clock::now();
    std::unique_ptr<fhe::NttBackend> built = make();
    raw->build_ms = seconds_between(t0, Clock::now()) * 1e3;
    raw->resident_mb = resident_mb() - rss0;
    raw->pim = dynamic_cast<fhe::PimBackend*>(built.get());
    if (raw->pim == nullptr) throw std::logic_error("not a PIM shard");
    if (!traced) return built;
    built.release();
    auto decorator = std::make_unique<TracedBackend>(
        std::unique_ptr<fhe::PimBackend>(raw->pim), sample_every,
        /*max_samples=*/64);
    raw->traced = decorator.get();
    return decorator;
  };
  cfg.backend.descriptors = {d};
  cfg.former.queue_capacity = 4096;  // holds a whole staged round
  cfg.telemetry.enabled = traced;
  shard->svc = std::make_unique<service::NttService>(cfg);
  return shard;
}

/// Submit `jobs` (seeded by `seeds`) with the former paused, then release
/// them at once and wait for every result. Returns the release time.
Clock::time_point staged_round(Shard& shard, const Workload& w,
                               const std::vector<Job>& jobs,
                               const std::vector<std::uint64_t>& seeds,
                               std::vector<Slot>& slots,
                               std::vector<std::future<std::vector<std::uint32_t>>>&
                                   products) {
  service::NttService& svc = *shard.svc;
  svc.pause();
  products.clear();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const ParamsPtr& p = w.params[j.param];
    if (j.multiply) {
      products.push_back(svc.submit_multiply(operand(*p, seeds[i], 0),
                                             operand(*p, seeds[i], 1), p));
    } else {
      service::SubmitOptions o;
      o.inverse = j.inverse;
      svc.submit(operand(*p, seeds[i], 0), p, o, completion(slots[i]));
    }
  }
  const auto released = Clock::now();
  svc.resume();
  svc.drain();
  return released;
}

/// Set-up: build the shard, then warm its plan cache. serve_open warms
/// every (parameter set, direction, bank) its waves can use; serve_backlog
/// runs one untimed round of its backlog.
std::unique_ptr<Shard> set_up(const Workload& w, bool traced,
                              std::size_t sample_every) {
  auto shard = build_shard(w, traced, sample_every);
  std::vector<Job> jobs;
  if (w.channels == 1) {
    // 6 kinds x 8 banks: in wave r, slot s (bank s) gets kind (r + s) % 6.
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t s = 0; s < kBanks; ++s) {
        const std::size_t kind = (r + s) % 6;
        jobs.push_back({kind / 2, kind % 2 == 1, false});
      }
  } else {
    for (std::size_t b = 0; b < kBacklogBlocks; ++b)
      jobs.insert(jobs.end(), w.block.begin(), w.block.end());
    shuffle(jobs, kFixedOrderSeed);
  }
  std::vector<std::uint64_t> seeds(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) seeds[i] = mix_seed(~0ULL, i);
  std::vector<Slot> slots(jobs.size());
  std::vector<std::future<std::vector<std::uint32_t>>> products;
  staged_round(*shard, w, jobs, seeds, slots, products);
  for (auto& f : products) f.get();  // rethrows a failed warm-up
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!jobs[i].multiply && !slots[i].ok)
      throw std::runtime_error("warm-up request failed");
  shard->svc->reset_stats();
  return shard;
}

/// Median set-up time over kSetups builds; returns the last shard.
std::unique_ptr<Shard> timed_setups(const Workload& w,
                                    std::vector<double>& seconds) {
  std::unique_ptr<Shard> shard;
  for (int i = 0; i < kSetups; ++i) {
    shard.reset();
    const auto t0 = Clock::now();
    shard = set_up(w, false, 0);
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return shard;
}

/// What a measured window leaves behind for the metrics and the checks.
struct Window {
  std::vector<Slice> slices;
  std::vector<double> latency_ms;  ///< per timed request (inf when failed)
  std::vector<double> late_us;     ///< serve_open generator lateness
  std::vector<std::uint64_t> round_cycles;  ///< serve_backlog, per round
  std::uint64_t requests = 0;
  std::uint64_t verified = 0;
  std::uint64_t sampled_products = 0;  ///< schoolbook-checked multiplies
  std::uint64_t sampled_ok = 0;
  double cpu_s = 0;  ///< process CPU in the timed window, minus generator
  double submit_to_done_us = 0;  ///< mean, serve_open
  double cycles_per_op = 0;      ///< modeled (PimBackend account)
  double energy_nj_per_op = 0;
  double acts = 0;  ///< modeled ACTs of the mapped traces
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
};

constexpr double kSliceS = 1.0;  ///< serve_open slice length (arrival time)

/// serve_open's measured window: Poisson arrivals at kOpenRate from one
/// generator thread, each request timed from its due time. The generator
/// also digests finished results between arrivals and samples the CPU
/// clocks at each slice boundary (its own CPU is excluded).
Window open_window(Shard& shard, const Workload& w, std::uint64_t seed,
                   double seconds) {
  Window win;
  std::vector<Job> jobs;
  const std::size_t unit = w.block.size();
  const auto blocks = static_cast<std::size_t>(
      std::ceil(kOpenRate * seconds / static_cast<double>(unit)));
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Job> block = w.block;
    shuffle(block, mix_seed(seed, kOrderStream + b));
    jobs.insert(jobs.end(), block.begin(), block.end());
  }
  const std::size_t n = jobs.size();
  win.requests = n;
  std::vector<double> offset_s(n);
  std::vector<std::uint64_t> seeds(n);
  Rng arrivals(mix_seed(seed, kArrivalStream));
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        static_cast<double>(arrivals.next_u64() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / kOpenRate;
    offset_s[i] = t;
    seeds[i] = mix_seed(seed, i);
  }
  // Slice k holds the requests due in [k, k + 1) * kSliceS; the last,
  // partial slice is left out of the medians.
  const auto full_slices = static_cast<std::size_t>(offset_s.back() / kSliceS);
  std::vector<double> slice_cpu_s(full_slices + 1, 0);
  std::vector<Slot> slots(n);
  win.late_us.assign(n, 0);

  const std::uint64_t cycles0 = shard.pim->total_cycles();
  const double energy0 = shard.pim->total_energy_nj();
  const std::uint64_t hits0 = shard.pim->plan_cache_hits();
  const std::uint64_t misses0 = shard.pim->plan_cache_misses();
  service::NttService& svc = *shard.svc;
  std::size_t digested = 0;
  auto digest_ready = [&](bool wait) {
    while (digested < n &&
           (wait || slots[digested].done_flag.load(std::memory_order_acquire))) {
      Slot& s = slots[digested++];
      while (!s.done_flag.load(std::memory_order_acquire))
        std::this_thread::yield();
      s.digest = digest(s.result);
      std::vector<std::uint32_t>().swap(s.result);
    }
  };
  auto due_at = [&](Clock::time_point t0, std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s[i]));
  };

  double gen_cpu_s = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const double cpu0 = process_cpu_s();
  std::thread generator([&] {
    const double own0 = thread_cpu_s();
    std::size_t slice = 0;
    auto next = operand(*w.params[jobs[0].param], seeds[0], 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = due_at(t0, i);
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      win.late_us[i] = us_between(due, now);
      while (slice < full_slices &&
             offset_s[i] >= static_cast<double>(slice + 1) * kSliceS)
        slice_cpu_s[++slice] = process_cpu_s() - (thread_cpu_s() - own0);
      service::SubmitOptions o;
      o.inverse = jobs[i].inverse;
      slots[i].submitted = now;
      svc.submit(std::move(next), w.params[jobs[i].param], o,
                 completion(slots[i]));
      if (i + 1 < n) next = operand(*w.params[jobs[i + 1].param], seeds[i + 1], 0);
      digest_ready(false);
    }
    gen_cpu_s = thread_cpu_s() - own0;
  });
  generator.join();
  svc.drain();
  win.cpu_s = process_cpu_s() - cpu0 - gen_cpu_s;
  slice_cpu_s[0] = cpu0;
  digest_ready(true);
  win.cycles_per_op =
      static_cast<double>(shard.pim->total_cycles() - cycles0) / n;
  win.energy_nj_per_op = (shard.pim->total_energy_nj() - energy0) / n;
  win.plan_hits = shard.pim->plan_cache_hits() - hits0;
  win.plan_misses = shard.pim->plan_cache_misses() - misses0;

  std::vector<std::vector<double>> slice_ms(full_slices);
  std::vector<double> slice_cmds(full_slices, 0);
  double submit_to_done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    const Job& j = jobs[i];
    const bool ok =
        s.ok && s.digest == digest(reference(*w.params[j.param], j, seeds[i]));
    const double ms = ok ? us_between(due_at(t0, i), s.done) / 1e3 : INFINITY;
    win.latency_ms.push_back(ms);
    const auto k = static_cast<std::size_t>(offset_s[i] / kSliceS);
    if (k < full_slices) slice_ms[k].push_back(ms);
    win.acts += w.job_counts(j).acts;
    if (!ok) continue;
    ++win.verified;
    submit_to_done += us_between(s.submitted, s.done);
    if (k < full_slices) slice_cmds[k] += w.job_counts(j).commands;
  }
  win.submit_to_done_us =
      win.verified ? submit_to_done / static_cast<double>(win.verified) : 0;
  for (std::size_t k = 0; k < full_slices; ++k) {
    if (slice_ms[k].empty()) continue;
    const double count = static_cast<double>(slice_ms[k].size());
    Slice s;
    s.ops_per_s = static_cast<double>(std::count_if(
                      slice_ms[k].begin(), slice_ms[k].end(),
                      [](double ms) { return std::isfinite(ms); })) /
                  kSliceS;
    s.p50_ms = percentile(slice_ms[k], 50);
    s.p90_ms = percentile(slice_ms[k], 90);
    // Excluding the generator: its CPU was subtracted at each sample.
    s.cpu_ms_per_op = (slice_cpu_s[k + 1] - slice_cpu_s[k]) * 1e3 / count;
    s.cmds_per_s = slice_cmds[k] / kSliceS;
    win.slices.push_back(s);
  }
  return win;
}

/// serve_backlog's measured window: staged rounds of the fixed backlog
/// until `seconds` have passed; each round is timed from release to
/// drained. Transform latencies run from the release; multiplies (future
/// API) count in the round time only.
Window backlog_window(Shard& shard, const Workload& w, std::uint64_t seed,
                      double seconds) {
  Window win;
  std::vector<Job> jobs;
  for (std::size_t b = 0; b < kBacklogBlocks; ++b)
    jobs.insert(jobs.end(), w.block.begin(), w.block.end());
  shuffle(jobs, kFixedOrderSeed);
  const std::size_t n = jobs.size();

  std::set<std::size_t> sample_params;  // first multiply per parameter set
  std::vector<double> round_energy_nj;
  const std::uint64_t hits0 = shard.pim->plan_cache_hits();
  const std::uint64_t misses0 = shard.pim->plan_cache_misses();
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round == 0 || seconds_between(start, Clock::now()) < seconds; ++round) {
    std::vector<std::uint64_t> seeds(n);
    for (std::size_t i = 0; i < n; ++i) seeds[i] = mix_seed(seed, round * n + i);
    std::vector<Slot> slots(n);
    std::vector<std::future<std::vector<std::uint32_t>>> products;

    const std::uint64_t cycles0 = shard.pim->total_cycles();
    const double energy0 = shard.pim->total_energy_nj();
    const double cpu0 = process_cpu_s();
    const auto released = staged_round(shard, w, jobs, seeds, slots, products);
    const auto drained = Clock::now();
    const double cpu = process_cpu_s() - cpu0;
    win.cpu_s += cpu;
    win.round_cycles.push_back(shard.pim->total_cycles() - cycles0);
    round_energy_nj.push_back(shard.pim->total_energy_nj() - energy0);

    // Checks, outside the timed round.
    std::vector<double> round_ms;
    double commands = 0;
    std::size_t product = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Job& j = jobs[i];
      const ntt::NttParams& p = *w.params[j.param];
      bool ok = false;
      if (j.multiply) {
        try {
          const std::vector<std::uint32_t> c = products[product++].get();
          ok = c == reference(p, j, seeds[i]);
          if (round == 0 && sample_params.insert(j.param).second) {
            ++win.sampled_products;
            const bool same = c == schoolbook(operand(p, seeds[i], 0),
                                              operand(p, seeds[i], 1), p.q());
            win.sampled_ok += same;
            ok = ok && same;
          }
        } catch (const std::exception&) {
          ok = false;
        }
      } else {
        const Slot& s = slots[i];
        ok = s.ok && s.result == reference(p, j, seeds[i]);
        round_ms.push_back(ok ? us_between(released, s.done) / 1e3 : INFINITY);
      }
      ++win.requests;
      win.acts += w.job_counts(j).acts;
      if (!ok) continue;
      ++win.verified;
      commands += w.job_counts(j).commands;
    }
    const double round_s = seconds_between(released, drained);
    Slice slice;
    slice.ops_per_s = static_cast<double>(n) / round_s;
    slice.p50_ms = percentile(round_ms, 50);
    slice.p90_ms = percentile(round_ms, 90);
    slice.cpu_ms_per_op = cpu * 1e3 / static_cast<double>(n);
    slice.cmds_per_s = commands / round_s;
    win.slices.push_back(slice);
    win.latency_ms.insert(win.latency_ms.end(), round_ms.begin(),
                          round_ms.end());
  }
  // Modeled figures of the median round: a rare round whose waves grouped
  // differently (the worker raced the dispatcher) does not move them. The
  // backend sums energy in floating point, so the energy of equal rounds
  // can differ in its last bits.
  std::vector<double> cycles(win.round_cycles.begin(), win.round_cycles.end());
  win.cycles_per_op = median(cycles) / static_cast<double>(n);
  win.energy_nj_per_op = median(round_energy_nj) / static_cast<double>(n);
  win.plan_hits = shard.pim->plan_cache_hits() - hits0;
  win.plan_misses = shard.pim->plan_cache_misses() - misses0;
  return win;
}

std::string composition(const Workload& w) {
  std::ostringstream os;
  os << "composition: per " << w.block.size() << "-request block:";
  for (std::size_t p = 0; p < w.params.size(); ++p) {
    std::size_t fwd = 0, inv = 0, mul = 0;
    for (const Job& j : w.block)
      if (j.param == p) (j.multiply ? mul : j.inverse ? inv : fwd)++;
    os << " [n=" << w.params[p]->n() << " q=" << w.params[p]->q()
       << " fwd=" << fwd << " inv=" << inv << " mul=" << mul << "]";
  }
  os << "; " << w.channels << " channel(s), " << kBanks << " banks";
  return os.str();
}

void add_end_to_end(Outcome& out, const Window& win,
                    const std::vector<double>& setups) {
  const double req = static_cast<double>(win.requests);
  const Slice host = median_slice(win.slices);
  out.attempted += win.requests;
  out.failed += win.requests - win.verified;
  out.add("ops_per_s", host.ops_per_s, "1/s");
  out.add("latency_p50_ms", host.p50_ms, "ms");
  out.add("latency_p90_ms", host.p90_ms, "ms");
  out.add("success_rate", static_cast<double>(win.verified) / req, "ratio");
  out.add("cpu_ms_per_op", host.cpu_ms_per_op, "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.add("setup_s", median(setups), "s");
  out.add("sim_cmds_per_s", host.cmds_per_s, "1/s");
  out.add("modeled_cycles_per_op", win.cycles_per_op, "cycles");
  out.add("modeled_acts_per_op", win.acts / req, "count");
  out.add("modeled_energy_uj_per_op", win.energy_nj_per_op / 1e3, "uJ");
  out.add("paper_latency_err_pct", paper_latency_err_pct(), "%");
  std::ostringstream os;
  os << "latency_p99_ms: " << percentile(win.latency_ms, 99) << " over "
     << win.latency_ms.size() << " timed requests, " << win.slices.size()
     << " slices; plan cache hits " << win.plan_hits << " misses "
     << win.plan_misses;
  out.note(os.str());
}

void check_schedule(Outcome& out, const Window& win) {
  if (win.late_us.empty()) return;
  out.check(percentile(win.late_us, 50) <= kMaxMedianLateUs,
            "generator kept its schedule (median lateness <= 1 ms)");
}

using WindowFn = Window (*)(Shard&, const Workload&, std::uint64_t, double);

/// Per-layer run: an untraced window on the set-up shard (the baseline of
/// trace.overhead_pct), then a traced window on a decorated shard with
/// lifecycle telemetry on, then the replay of its sampled waves.
Outcome traced_run(const Options& options, const Workload& w,
                   std::unique_ptr<Shard> plain, WindowFn window,
                   std::size_t sample_every) {
  Outcome out;
  const double half = options.seconds / 2;
  const Window base = window(*plain, w, options.seed, half);
  plain.reset();

  auto shard = set_up(w, true, sample_every);
  TracedBackend& tb = *shard->traced;
  tb.reset();
  const std::uint64_t modeled0 = tb.modeled_cycles();
  const Window win = window(*shard, w, mix_seed(options.seed, 7), half);
  const service::ServiceStats stats = shard->svc->stats();
  check_schedule(out, base);
  check_schedule(out, win);
  out.attempted = base.requests + win.requests;
  out.failed = (base.requests - base.verified) + (win.requests - win.verified);

  std::uint64_t executed = 0;
  double err = 0;
  for (const TracedBackend::Pass& p : tb.passes()) {
    executed += p.executed;
    err += std::abs(static_cast<double>(p.estimated) -
                    static_cast<double>(p.executed)) /
           static_cast<double>(p.executed);
  }
  out.check(executed == tb.modeled_cycles() - modeled0,
            "per-wave cycles sum to PimBackend::modeled_cycles()");
  const service::StageBreakdown& st = stats.classes.at(0).stages;
  const double stage_sum = st.admission_wait_us + st.former_residency_us +
                           st.shard_queue_wait_us + st.execute_us +
                           st.completion_us;
  out.check(std::abs(stage_sum - st.total_us) <= 1e-6 * st.total_us + 1e-6,
            "stage breakdown sums to its total");
  out.check(st.count == win.verified, "stage breakdown covers every request");
  const double enqueued_to_done =
      st.former_residency_us + st.shard_queue_wait_us + st.execute_us;
  out.check(std::abs(enqueued_to_done - stats.service_latency.mean_us) <=
                0.01 * stats.service_latency.mean_us + 5,
            "former + queue + execute tile the service latency");
  if (w.channels == 1) {
    // Benchmark-side submit -> callback time against the stage total.
    const double gap = win.submit_to_done_us - (st.total_us - st.completion_us);
    out.check(std::abs(gap) <= st.completion_us + 0.02 * st.total_us + 10,
              "stages tile the benchmark-measured latency");
  }

  SpanLog worker = tb.spans();
  std::vector<TracedBackend::Sample> samples = std::move(tb.samples());
  const double estimate_us = tb.mean_estimate_us();
  const std::vector<double> pointwise = tb.pointwise_us();
  const double passes = static_cast<double>(tb.passes().size());
  const std::uint64_t hits = win.plan_hits, misses = win.plan_misses;
  const double build_ms = shard->build_ms, rss_mb = shard->resident_mb;
  const std::int64_t clock_base =
      shard->svc->trace_collector().to_ns(Clock::time_point{});
  const std::string telemetry_json =
      telemetry::chrome_trace_json(shard->svc->trace_collector().drain());
  shard.reset();  // frees the shard's device before the replay builds one

  SpanLog replay_log(1);
  const auto replayed = replay_waves(
      samples, dram::hbm2e_geometry(kBanks, w.channels), kBuffers, kFreqMhz,
      replay_log);
  double commands = 0, items = 0, col = 0, acts = 0, busy = 0, cycles = 0,
         refreshes = 0;
  for (std::size_t k = 0; k < replayed.size(); ++k) {
    const sim::RunStats& s = replayed[k].stats;
    out.check(s.cycles == samples[k].cycles,
              "replayed wave reproduces its modeled cycles");
    out.check(replayed[k].outputs_match && replayed[k].apply_matches,
              "replayed wave reproduces its outputs");
    const auto tc = mapping::count_commands(samples[k].wave.trace);
    double planned = 0;
    for (const auto& slot : samples[k].wave.slots)
      for (std::size_t p = 0; p < w.params.size(); ++p)
        if (w.params[p]->n() == slot.n && w.params[p]->q() == slot.q)
          planned += w.counts[p][slot.inverse].commands;
    out.check(static_cast<double>(tc.total) == planned &&
                  replayed[k].mapped_commands == samples[k].wave.trace.size(),
              "plan command counts match the recorded traces");
    out.check(replayed[k].trace_valid, "recorded trace passes validate_trace");
    commands += static_cast<double>(s.commands);
    items += static_cast<double>(samples[k].wave.slots.size());
    col += static_cast<double>(s.column_reads + s.column_writes);
    acts += static_cast<double>(s.activations);
    busy += static_cast<double>(s.bus_busy_cycles);
    cycles += static_cast<double>(s.cycles);
    refreshes += static_cast<double>(s.refreshes);
  }
  const double waves = static_cast<double>(replayed.size());
  const LayerTimes rt = layer_times(replay_log);
  const LayerTimes wt = layer_times(worker);

  out.add("dram.build_ms_per_bank", build_ms / kBanks, "ms");
  out.add("dram.resident_mb_per_bank", rss_mb / kBanks, "MiB");
  out.add("mapping.plan_hit_ratio",
          hits + misses == 0 ? 1.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(hits + misses),
          "ratio");
  out.add("mapping.plan_misses", static_cast<double>(misses), "count");
  out.add("mapping.map_us", total_us(rt, "mapping.map") / items, "us");
  out.add("mapping.validate_us", mean_self_us(rt, "mapping.validate"), "us");
  out.add("sim.engine_us_per_pass", mean_self_us(rt, "sim.engine"), "us");
  out.add("sim.engine_ns_per_cmd", total_us(rt, "sim.engine") * 1e3 / commands,
          "ns");
  out.add("sim.cmds_per_pass", commands / waves, "count");
  out.add("pim.apply_us_per_pass", mean_self_us(rt, "pim.apply"), "us");
  out.add("pim.load_us", total_us(rt, "pim.load") / items, "us");
  out.add("pim.read_us", total_us(rt, "pim.read") / items, "us");
  out.add("fhe.wave_us", mean_self_us(wt, "fhe.wave"), "us");
  out.add("fhe.estimate_us", estimate_us, "us");
  out.add("fhe.cost_model_err_pct", 100.0 * err / passes, "%");
  if (!pointwise.empty()) out.add("fhe.pointwise_us", mean(pointwise), "us");
  out.add("service.admission_wait_us", st.admission_wait_us, "us");
  out.add("service.former_residency_us", st.former_residency_us, "us");
  out.add("service.shard_queue_wait_us", st.shard_queue_wait_us, "us");
  out.add("service.execute_us", st.execute_us, "us");
  out.add("service.completion_us", st.completion_us, "us");
  out.add("service.wave_occupancy", stats.mean_wave_occupancy, "ratio");
  out.add("service.failed", static_cast<double>(stats.failed), "count");
  out.add("service.rejected", static_cast<double>(stats.rejected), "count");
  out.add("model.col_per_act", col / acts, "ratio");
  out.add("model.bus_utilization", busy / cycles, "ratio");
  out.add("model.refreshes", refreshes / waves, "count");
  if (!win.late_us.empty())
    out.add("gen.late_p99_us", percentile(win.late_us, 99), "us");
  const double base_cpu = base.cpu_s / static_cast<double>(base.requests);
  const double traced_cpu = win.cpu_s / static_cast<double>(win.requests);
  out.add("trace.overhead_pct", 100.0 * (traced_cpu / base_cpu - 1.0), "%");
  out.add("telemetry.events", static_cast<double>(stats.trace_events), "count");
  out.add("telemetry.dropped", static_cast<double>(stats.trace_dropped_events),
          "count");
  out.note("traced window: " + std::to_string(win.requests) + " requests, " +
           std::to_string(static_cast<long>(passes)) + " passes, " +
           std::to_string(replayed.size()) + " replayed");

  if (!options.trace_out.empty()) {
    const bool ok = write_trace_file(
        options.trace_out, {&worker, &replay_log},
        [clock_base](Clock::time_point tp) {
          return clock_base +
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     tp.time_since_epoch())
                     .count();
        },
        telemetry_json);
    out.check(ok, "trace written to " + options.trace_out);
  }
  return out;
}

}  // namespace

Outcome run_serve_open(const Options& options) {
  const Workload w = open_workload();
  std::vector<double> setups;
  auto shard = timed_setups(w, setups);
  if (options.trace)
    return traced_run(options, w, std::move(shard), open_window, 64);

  Outcome out;
  const Window win = open_window(*shard, w, options.seed, options.seconds);
  const service::ServiceStats stats = shard->svc->stats();
  add_end_to_end(out, win, setups);
  check_schedule(out, win);
  out.note(composition(w) + "; offered " + std::to_string(kOpenRate) +
           " req/s, " + std::to_string(win.requests) + " requests");
  std::ostringstream os;
  os << "gen.late_p50_us " << percentile(win.late_us, 50) << ", p99 "
     << percentile(win.late_us, 99) << "; wave occupancy "
     << stats.mean_wave_occupancy;
  out.note(os.str());
  return out;
}

Outcome run_serve_backlog(const Options& options) {
  const Workload w = backlog_workload();
  std::vector<double> setups;
  auto shard = timed_setups(w, setups);
  if (options.trace)
    return traced_run(options, w, std::move(shard), backlog_window, 32);

  Outcome out;
  const Window win = backlog_window(*shard, w, options.seed, options.seconds);
  const service::ServiceStats stats = shard->svc->stats();
  add_end_to_end(out, win, setups);
  out.check(win.sampled_products == w.params.size() &&
                win.sampled_ok == win.sampled_products,
            "sampled multiplies match the schoolbook product");
  const std::set<std::uint64_t> distinct(win.round_cycles.begin(),
                                         win.round_cycles.end());
  std::ostringstream os;
  out.note(composition(w) + "; " + std::to_string(kBacklogBlocks) +
           " blocks per round");
  os << win.slices.size() << " rounds; distinct per-round modeled "
     << "cycles: " << distinct.size() << " (first " << win.round_cycles[0]
     << ", last " << win.round_cycles.back() << "); wave occupancy "
     << stats.mean_wave_occupancy << "; schoolbook-checked multiplies "
     << win.sampled_ok << "/" << win.sampled_products;
  out.note(os.str());
  std::ostringstream rounds;
  rounds << "per round ops/s @ cpu ms/op:";
  for (const Slice& r : win.slices)
    rounds << " " << static_cast<int>(r.ops_per_s) << "@" << r.cpu_ms_per_op;
  out.note(rounds.str());
  return out;
}

}  // namespace nttpim::perfbench
