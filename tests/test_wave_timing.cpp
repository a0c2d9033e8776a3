// Twin-path gate for PimBackend's wave-timing cache. A pass that misses runs
// Engine::run; a pass that hits reuses the memoized RunStats and replays only
// the commands' functional effects. Both must equal Engine::run of the
// pass's merged trace on a fresh device, bit for bit: cycles, per-channel
// makespans, energy, butterflies, refreshes and outputs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "fhe/pim_backend.h"
#include "ntt/negacyclic.h"
#include "ntt/params.h"
#include "pim/device.h"
#include "pim/host.h"
#include "sim/engine.h"

namespace nttpim::fhe {
namespace {

constexpr std::size_t kBuffers = 4;
constexpr double kFreqMhz = 1200.0;

struct ItemSpec {
  const ntt::NttParams* params;
  bool inverse;
  std::int32_t channel = BatchItem::kAnyChannel;
};

/// What one pass through the backend produced.
struct Pass {
  bool hit = false;
  std::uint64_t cycles = 0;  ///< total_cycles() delta
  double energy_before = 0;
  double energy_after = 0;
  sim::RunStats stats;  ///< last_wave_stats()
  std::vector<std::vector<std::uint32_t>> outputs;
};

/// Engine::run of `wave.trace` on a fresh device, with every item loaded
/// the way PimBackend loads it (bit-reversed, psi^i pre-scale folded in
/// for forward transforms), and each result read back in place.
Pass run_fresh(const dram::DramGeometry& geometry,
               const PimBackend::RecordedWave& wave,
               const std::vector<std::vector<std::uint32_t>>& inputs,
               const std::vector<ItemSpec>& specs) {
  pim::PimDevice device(geometry, kBuffers);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    const auto& slot = wave.slots[j];
    std::vector<std::uint32_t> staged = inputs[j];
    if (!slot.inverse)
      ntt::geometric_scale(staged, specs[j].params->psi(), 1,
                           specs[j].params->q());
    pim::load_polynomial(device.bank(slot.bank), slot.base_row, staged);
  }
  sim::EngineConfig config;
  config.timing = dram::hbm2e_timing().at_frequency(kFreqMhz);
  Pass fresh;
  fresh.stats = sim::Engine(config).run(device, wave.trace);
  fresh.outputs.reserve(wave.slots.size());
  for (const auto& slot : wave.slots)
    fresh.outputs.push_back(
        pim::read_result(device.bank(slot.bank), slot.base_row, slot.n));
  return fresh;
}

void expect_pass_matches(const Pass& pass, const Pass& fresh) {
  EXPECT_EQ(pass.cycles, fresh.stats.cycles);
  // The backend accumulates energy with one double addition per pass.
  EXPECT_EQ(pass.energy_after,
            pass.energy_before + fresh.stats.energy.total_nj());
  EXPECT_EQ(pass.stats.cycles, fresh.stats.cycles);
  EXPECT_EQ(pass.stats.channel_makespans, fresh.stats.channel_makespans);
  EXPECT_EQ(pass.stats.energy.total_nj(), fresh.stats.energy.total_nj());
  EXPECT_EQ(pass.stats.butterflies, fresh.stats.butterflies);
  EXPECT_EQ(pass.stats.refreshes, fresh.stats.refreshes);
  EXPECT_EQ(pass.stats.activations, fresh.stats.activations);
  EXPECT_EQ(pass.stats.commands, fresh.stats.commands);
  EXPECT_EQ(pass.stats.bus_busy_cycles, fresh.stats.bus_busy_cycles);
  EXPECT_EQ(pass.outputs, fresh.outputs);
}

/// Runs every wave three times on one backend with the same inputs: the
/// first pass misses, the next two hit. Recording alternates per wave
/// (on/off/on, then off/on/off) so misses and hits are covered both with
/// and without set_record_waves, which must never bypass the cache.
/// Returns the refreshes the engine inserted over all waves.
std::uint64_t check_twin_paths(
    const dram::DramGeometry& geometry,
    const std::vector<std::vector<ItemSpec>>& waves) {
  PimBackend backend(kBuffers, kFreqMhz, geometry);
  Rng rng(7 * geometry.banks + geometry.num_channels);
  std::uint64_t refreshes = 0;
  for (std::size_t w = 0; w < waves.size(); ++w) {
    SCOPED_TRACE("wave " + std::to_string(w));
    const std::vector<ItemSpec>& specs = waves[w];
    std::vector<std::vector<std::uint32_t>> inputs;
    inputs.reserve(specs.size());
    for (const ItemSpec& spec : specs)
      inputs.push_back(rng.residues(spec.params->n(), spec.params->q()));

    std::vector<Pass> passes;
    std::vector<PimBackend::RecordedWave> recorded;
    for (std::size_t p = 0; p < 3; ++p) {
      const bool record = (p + w) % 2 == 0;
      backend.set_record_waves(record);
      Pass pass;
      pass.outputs = inputs;
      std::vector<BatchItem> items;
      items.reserve(specs.size());
      for (std::size_t j = 0; j < specs.size(); ++j)
        items.push_back({&pass.outputs[j], specs[j].params, specs[j].inverse,
                         specs[j].channel});
      const std::uint64_t hits = backend.wave_timing_hits();
      const std::uint64_t misses = backend.wave_timing_misses();
      const std::uint64_t cycles = backend.total_cycles();
      pass.energy_before = backend.total_energy_nj();
      backend.transform_batch_mixed(items);
      pass.cycles = backend.total_cycles() - cycles;
      pass.energy_after = backend.total_energy_nj();
      pass.stats = backend.last_wave_stats();
      pass.hit = backend.wave_timing_hits() == hits + 1;
      EXPECT_EQ(backend.wave_timing_hits() + backend.wave_timing_misses(),
                hits + misses + 1);
      if (record) {
        EXPECT_EQ(backend.recorded_waves().size(), 1u);
        recorded.push_back(backend.recorded_waves().back());
      }
      passes.push_back(std::move(pass));
    }
    EXPECT_FALSE(passes[0].hit);
    EXPECT_TRUE(passes[1].hit);
    EXPECT_TRUE(passes[2].hit);

    // A hit records the same merged trace a miss does (every wave records
    // on one or two of its passes).
    for (const auto& r : recorded) {
      EXPECT_EQ(r.slots, recorded.front().slots);
      EXPECT_EQ(r.trace, recorded.front().trace);
    }
    const Pass fresh = run_fresh(geometry, recorded.front(), inputs, specs);
    for (std::size_t p = 0; p < passes.size(); ++p) {
      SCOPED_TRACE("pass " + std::to_string(p));
      expect_pass_matches(passes[p], fresh);
    }
    refreshes += fresh.stats.refreshes;
  }
  EXPECT_EQ(backend.wave_timing_misses(), waves.size());
  EXPECT_EQ(backend.wave_timing_hits(), 2 * waves.size());
  EXPECT_EQ(backend.wave_timing_evictions(), 0u);
  return refreshes;
}

class WaveTimingCache : public ::testing::Test {
 protected:
  const ntt::NttParams p256a_ = ntt::NttParams::create(256, 31);
  const ntt::NttParams p256b_ = ntt::NttParams::create(256, 30);
  const ntt::NttParams p1024a_ = ntt::NttParams::create(1024, 31);
  const ntt::NttParams p1024b_ = ntt::NttParams::create(1024, 30);
  const ntt::NttParams p4096_ = ntt::NttParams::create(4096, 31);

  /// `count` items cycling through mixed sizes, moduli and directions.
  std::vector<ItemSpec> mixed(std::size_t count) const {
    const ntt::NttParams* params[] = {&p256a_, &p1024a_, &p256b_, &p1024b_,
                                      &p256a_};
    std::vector<ItemSpec> specs;
    specs.reserve(count);
    for (std::size_t j = 0; j < count; ++j)
      specs.push_back({params[j % 5], j % 3 == 1});
    return specs;
  }
};

TEST_F(WaveTimingCache, OneBankOneChannel) {
  const std::uint64_t refreshes = check_twin_paths(
      dram::hbm2e_geometry(1),
      {{{&p256a_, false}},
       // Three items stacked in the one bank, mixed n, q and direction.
       {{&p1024a_, true}, {&p256b_, false}, {&p256a_, true}},
       // Long enough to cross tREFI several times.
       {{&p4096_, false}}});
  EXPECT_GT(refreshes, 0u);
}

TEST_F(WaveTimingCache, EightBanksOneChannel) {
  EXPECT_GT(check_twin_paths(dram::hbm2e_geometry(8),
                             {mixed(8), mixed(12), mixed(3)}),
            0u);
}

TEST_F(WaveTimingCache, EightBanksTwoChannels) {
  std::vector<ItemSpec> pinned = mixed(5);
  pinned[0].channel = 1;
  pinned[1].channel = 1;
  pinned[3].channel = 0;
  EXPECT_GT(check_twin_paths(dram::hbm2e_geometry(8, 2),
                             {mixed(8), mixed(11), pinned}),
            0u);
}

TEST_F(WaveTimingCache, SixteenBanksFourChannels) {
  std::vector<ItemSpec> wide = mixed(20);
  wide[6] = {&p4096_, true};
  EXPECT_GT(check_twin_paths(dram::hbm2e_geometry(16, 4), {mixed(16), wide}),
            0u);
}

TEST(WaveTimingSignature, PlacementsNotPlansAreTheKey) {
  // Same items in another order stack at other base rows: a new signature.
  const ntt::NttParams small = ntt::NttParams::create(256, 31);
  const ntt::NttParams large = ntt::NttParams::create(1024, 31);
  PimBackend backend(kBuffers, kFreqMhz, dram::hbm2e_geometry(1));
  Rng rng(3);
  auto a = rng.residues(256, small.q());
  auto b = rng.residues(1024, large.q());
  const BatchItem ab[] = {{&a, &small, false}, {&b, &large, false}};
  const BatchItem ba[] = {{&b, &large, false}, {&a, &small, false}};
  backend.transform_batch_mixed(ab);
  backend.transform_batch_mixed(ba);
  EXPECT_EQ(backend.wave_timing_misses(), 2u);
  backend.transform_batch_mixed(ab);
  backend.forward(a, small);  // a lone item is a wave of its own
  EXPECT_EQ(backend.wave_timing_hits(), 1u);
  EXPECT_EQ(backend.wave_timing_misses(), 3u);
  backend.inverse(a, small);  // the direction is part of the key
  EXPECT_EQ(backend.wave_timing_misses(), 4u);
}

TEST(WaveTimingEviction, BoundedLeastRecentlyUsed) {
  // kWaveTimingCapacity + 1 distinct waves of 13 tiny stacked items: wave i
  // runs item j inverse iff bit j of i is set.
  constexpr std::size_t kCap = PimBackend::kWaveTimingCapacity;
  constexpr std::size_t kItems = 13;
  static_assert(kCap + 1 <= (std::size_t{1} << kItems));
  const ntt::NttParams params = ntt::NttParams::create(16, 31);
  PimBackend backend(kBuffers, kFreqMhz, dram::hbm2e_geometry(1));
  Rng rng(5);
  std::vector<std::vector<std::uint32_t>> polys(kItems);
  for (auto& p : polys) p = rng.residues(16, params.q());
  const auto run = [&](std::size_t pattern) {
    std::vector<BatchItem> items;
    items.reserve(kItems);
    for (std::size_t j = 0; j < kItems; ++j)
      items.push_back({&polys[j], &params, ((pattern >> j) & 1) != 0});
    backend.transform_batch_mixed(items);
  };

  for (std::size_t i = 0; i <= kCap; ++i) run(i);
  EXPECT_EQ(backend.wave_timing_misses(), kCap + 1);
  EXPECT_EQ(backend.wave_timing_hits(), 0u);
  EXPECT_EQ(backend.wave_timing_evictions(), 1u);  // wave 0, the stalest

  run(kCap);  // the newest is still cached
  EXPECT_EQ(backend.wave_timing_hits(), 1u);
  run(0);  // evicted: misses again and evicts wave 1
  EXPECT_EQ(backend.wave_timing_misses(), kCap + 2);
  EXPECT_EQ(backend.wave_timing_evictions(), 2u);
  run(2);  // survived both evictions
  EXPECT_EQ(backend.wave_timing_hits(), 2u);
  run(1);
  EXPECT_EQ(backend.wave_timing_misses(), kCap + 3);
  EXPECT_EQ(backend.wave_timing_evictions(), 3u);
}

}  // namespace
}  // namespace nttpim::fhe
