// The traced run's shard backend: an fhe::NttBackend decorator over
// fhe::PimBackend, built by the shard's BackendDescriptor factory. It
// times every wave (transform_batch_mixed) and every cost-model call
// (estimate_wave_cycles), records each pass's estimate against the cycles
// it executed, measures the host pointwise step between a multiply wave's
// two passes, and keeps a sample of recorded waves (inputs, placements,
// merged trace, output digests) for the post-run replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fhe/pim_backend.h"
#include "ntt/params.h"
#include "sim/engine.h"
#include "spans.h"

namespace nttpim::perfbench {

class TracedBackend final : public fhe::NttBackend {
 public:
  /// One recorded engine pass.
  struct Sample {
    fhe::PimBackend::RecordedWave wave;
    std::vector<std::vector<std::uint32_t>> inputs;  ///< per item, pre-pass
    std::vector<ntt::NttParams> params;              ///< per item
    std::vector<std::uint64_t> output_digests;       ///< per item, post-pass
    std::uint64_t cycles = 0;  ///< modeled cycles the backend accounted
  };

  /// Per-pass record: the cost model's estimate and the executed cycles.
  struct Pass {
    std::uint64_t estimated = 0;
    std::uint64_t executed = 0;
  };

  /// Records every `sample_every`-th pass, up to `max_samples`.
  TracedBackend(std::unique_ptr<fhe::PimBackend> inner,
                std::size_t sample_every, std::size_t max_samples);

  void forward(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override;
  void inverse(std::vector<std::uint32_t>& a,
               const ntt::NttParams& params) override;
  void transform_batch_mixed(std::span<const fhe::BatchItem> items) override;
  std::uint64_t estimate_wave_cycles(
      std::span<const fhe::BatchItem> items) const override;
  std::uint64_t modeled_cycles() const noexcept override {
    return inner_->modeled_cycles();
  }

  // Call and read only while the backend is quiescent (after
  // NttService::drain()).
  /// Forget everything recorded so far (e.g. the warm-up's passes).
  void reset();
  SpanLog& spans() noexcept { return spans_; }
  const std::vector<Pass>& passes() const noexcept { return passes_; }
  std::vector<Sample>& samples() noexcept { return samples_; }
  /// Host time between a multiply wave's forward pass returning and its
  /// inverse pass starting (the service's pointwise product), us.
  const std::vector<double>& pointwise_us() const noexcept {
    return pointwise_us_;
  }
  /// Mean host time of the dispatcher's estimate calls, us.
  double mean_estimate_us() const noexcept;

 private:
  std::unique_ptr<fhe::PimBackend> inner_;
  std::size_t sample_every_;
  std::size_t max_samples_;
  SpanLog spans_{2};  ///< the shard worker thread's spans
  std::vector<Pass> passes_;
  std::vector<Sample> samples_;
  std::vector<double> pointwise_us_;
  /// The multiplies' first operands in the previous pass, and when it
  /// returned: an all-inverse pass over exactly them is the second pass of
  /// a wave with multiplies.
  std::vector<const std::vector<std::uint32_t>*> multiply_polys_;
  Clock::time_point last_end_{};
  // The dispatcher prices waves from its own thread.
  mutable std::atomic<std::uint64_t> estimate_ns_{0};
  mutable std::atomic<std::uint64_t> estimates_{0};
};

/// Result of replaying one sampled wave on a fresh device.
struct ReplayedWave {
  sim::RunStats stats;
  std::size_t mapped_commands = 0;  ///< re-mapped items' trace lengths
  bool trace_valid = false;         ///< mapping::validate_trace passed
  bool outputs_match = false;  ///< engine replay reproduced the outputs
  bool apply_matches = false;  ///< functional-only replay did too
};

/// Replay `samples` on a fresh device of `geometry`: map each item again
/// as the plan cache does on a miss (mapping.map), check the merged trace
/// (mapping.validate), load each item (pim.load), run the merged trace
/// through Engine::run (sim.engine), read
/// the results back (pim.read), then reload and run the trace through
/// PimBank::apply alone (pim.apply), so engine timing and functional host
/// time separate.
std::vector<ReplayedWave> replay_waves(
    const std::vector<TracedBackend::Sample>& samples,
    const dram::DramGeometry& geometry, std::size_t num_buffers,
    double freq_mhz, SpanLog& log);

}  // namespace nttpim::perfbench
