#include "traced_backend.h"

#include <algorithm>
#include <stdexcept>

#include "dram/config.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "ntt/negacyclic.h"
#include "pim/device.h"
#include "pim/host.h"

namespace nttpim::perfbench {

TracedBackend::TracedBackend(std::unique_ptr<fhe::PimBackend> inner,
                             std::size_t sample_every,
                             std::size_t max_samples)
    : inner_(std::move(inner)),
      sample_every_(std::max<std::size_t>(1, sample_every)),
      max_samples_(max_samples) {}

void TracedBackend::forward(std::vector<std::uint32_t>& a,
                            const ntt::NttParams& params) {
  const fhe::BatchItem item{&a, &params, false};
  transform_batch_mixed({&item, 1});
}

void TracedBackend::inverse(std::vector<std::uint32_t>& a,
                            const ntt::NttParams& params) {
  const fhe::BatchItem item{&a, &params, true};
  transform_batch_mixed({&item, 1});
}

void TracedBackend::transform_batch_mixed(
    std::span<const fhe::BatchItem> items) {
  const auto entered = Clock::now();
  const bool second_pass =
      !items.empty() && items.size() == multiply_polys_.size() &&
      std::all_of(items.begin(), items.end(), [&](const fhe::BatchItem& it) {
        return it.inverse &&
               std::find(multiply_polys_.begin(), multiply_polys_.end(),
                         it.poly) != multiply_polys_.end();
      });
  if (second_pass) pointwise_us_.push_back(us_between(last_end_, entered));

  Pass pass;
  pass.estimated = inner_->estimate_wave_cycles(items);
  const bool sample = passes_.size() % sample_every_ == 0 &&
                      samples_.size() < max_samples_;
  Sample s;
  if (sample) {
    for (const fhe::BatchItem& it : items) {
      s.inputs.push_back(*it.poly);
      s.params.push_back(*it.params);
    }
    inner_->set_record_waves(true);
  }
  const std::uint64_t before = inner_->modeled_cycles();
  {
    ScopedSpan span(spans_, "fhe.wave");
    inner_->transform_batch_mixed(items);
  }
  pass.executed = inner_->modeled_cycles() - before;
  passes_.push_back(pass);
  transforms_.fetch_add(items.size(), std::memory_order_relaxed);
  if (sample) {
    s.wave = inner_->recorded_waves().front();
    inner_->set_record_waves(false);
    for (const fhe::BatchItem& it : items)
      s.output_digests.push_back(digest(*it.poly));
    s.cycles = pass.executed;
    samples_.push_back(std::move(s));
  }
  // A multiply request puts its operands a and b -- adjacent members of
  // one request -- into the forward pass back to back; its inverse pass
  // then transforms a alone.
  multiply_polys_.clear();
  for (std::size_t j = 0; j + 1 < items.size(); ++j)
    if (!items[j].inverse && !items[j + 1].inverse &&
        items[j + 1].poly == items[j].poly + 1)
      multiply_polys_.push_back(items[j].poly);
  last_end_ = Clock::now();
}

void TracedBackend::reset() {
  spans_ = SpanLog(spans_.track());
  passes_.clear();
  samples_.clear();
  pointwise_us_.clear();
  multiply_polys_.clear();
  estimate_ns_.store(0, std::memory_order_relaxed);
  estimates_.store(0, std::memory_order_relaxed);
}

std::uint64_t TracedBackend::estimate_wave_cycles(
    std::span<const fhe::BatchItem> items) const {
  const auto t0 = Clock::now();
  const std::uint64_t cycles = inner_->estimate_wave_cycles(items);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  estimate_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                         std::memory_order_relaxed);
  estimates_.fetch_add(1, std::memory_order_relaxed);
  return cycles;
}

double TracedBackend::mean_estimate_us() const noexcept {
  const std::uint64_t n = estimates_.load(std::memory_order_relaxed);
  return n == 0 ? 0.0
                : static_cast<double>(
                      estimate_ns_.load(std::memory_order_relaxed)) /
                      1e3 / static_cast<double>(n);
}

namespace {

/// Place every item of `s` the way PimBackend::run_wave does: the forward
/// transform's psi^i pre-scale folded into the bit-reversed load.
void load_items(pim::PimDevice& device, const TracedBackend::Sample& s) {
  for (std::size_t j = 0; j < s.inputs.size(); ++j) {
    const auto& slot = s.wave.slots[j];
    std::vector<std::uint32_t> staged = s.inputs[j];
    if (!slot.inverse)
      ntt::geometric_scale(staged, s.params[j].psi(), 1, s.params[j].q());
    pim::load_polynomial(device.bank(slot.bank), slot.base_row, staged);
  }
}

/// The mapper updates in place, so each result lives at its input rows.
std::vector<std::vector<std::uint32_t>> read_items(
    const pim::PimDevice& device, const TracedBackend::Sample& s) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const auto& slot : s.wave.slots)
    out.push_back(
        pim::read_result(device.bank(slot.bank), slot.base_row, slot.n));
  return out;
}

bool outputs_match(const std::vector<std::vector<std::uint32_t>>& outputs,
                   const TracedBackend::Sample& s) {
  for (std::size_t j = 0; j < outputs.size(); ++j)
    if (digest(outputs[j]) != s.output_digests[j]) return false;
  return outputs.size() == s.output_digests.size();
}

}  // namespace

std::vector<ReplayedWave> replay_waves(
    const std::vector<TracedBackend::Sample>& samples,
    const dram::DramGeometry& geometry, std::size_t num_buffers,
    double freq_mhz, SpanLog& log) {
  pim::PimDevice device(geometry, num_buffers);
  sim::EngineConfig ec;
  ec.timing = dram::hbm2e_timing().at_frequency(freq_mhz);
  const sim::Engine engine(ec);
  std::vector<ReplayedWave> out;
  for (const TracedBackend::Sample& s : samples) {
    ReplayedWave r;
    for (std::size_t j = 0; j < s.wave.slots.size(); ++j) {
      const auto& slot = s.wave.slots[j];
      mapping::MapperConfig mc;
      mc.num_buffers = num_buffers;
      mc.bank = slot.bank;
      mapping::NttJob job;
      job.base_row = slot.base_row;
      job.direction = slot.inverse ? mapping::Direction::kInverse
                                   : mapping::Direction::kForward;
      job.negacyclic = slot.inverse;
      ScopedSpan span(log, "mapping.map");
      r.mapped_commands += mapping::RowCentricMapper(geometry, s.params[j], mc)
                               .map(job)
                               .trace.size();
    }
    try {
      ScopedSpan span(log, "mapping.validate");
      mapping::validate_trace(s.wave.trace, geometry, num_buffers);
      r.trace_valid = true;
    } catch (const std::logic_error&) {
      r.trace_valid = false;
    }
    {
      ScopedSpan span(log, "pim.load");
      load_items(device, s);
    }
    {
      ScopedSpan span(log, "sim.engine");
      r.stats = engine.run(device, s.wave.trace);
    }
    std::vector<std::vector<std::uint32_t>> outputs;
    {
      ScopedSpan span(log, "pim.read");
      outputs = read_items(device, s);
    }
    r.outputs_match = outputs_match(outputs, s);
    load_items(device, s);
    {
      ScopedSpan span(log, "pim.apply");
      for (const dram::Command& cmd : s.wave.trace)
        device.bank(cmd.bank).apply(cmd);
    }
    r.apply_matches = outputs_match(read_items(device, s), s);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace nttpim::perfbench
