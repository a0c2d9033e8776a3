#include <gtest/gtest.h>

#include "dram/bank.h"
#include "dram/command.h"
#include "dram/config.h"
#include "dram/energy.h"

namespace nttpim::dram {
namespace {

// ------------------------------------------------------------------ config

TEST(Config, Table1Defaults) {
  const DramTiming t = hbm2e_timing();
  EXPECT_EQ(t.cl, 14u);
  EXPECT_EQ(t.tccd, 2u);
  EXPECT_EQ(t.trp, 14u);
  EXPECT_EQ(t.tras, 34u);
  EXPECT_EQ(t.trcd, 14u);
  EXPECT_EQ(t.twr, 16u);
  EXPECT_DOUBLE_EQ(t.freq_mhz, 1200.0);

  const DramGeometry g = hbm2e_geometry();
  EXPECT_EQ(g.atom_bytes, 32u);
  EXPECT_EQ(g.atoms_per_row, 32u);
  EXPECT_EQ(g.rows_per_bank, 32768u);
  EXPECT_EQ(g.words_per_atom(), 8u);
  EXPECT_EQ(g.words_per_row(), 256u);
}

TEST(Config, FrequencyScalingKeepsNanoseconds) {
  const DramTiming base = hbm2e_timing();
  const DramTiming slow = base.at_frequency(300.0);
  // 14 cycles @1200 = 11.67ns -> 3.5 cycles @300 -> rounds up to 4.
  EXPECT_EQ(slow.trcd, 4u);
  EXPECT_EQ(slow.trp, 4u);
  EXPECT_EQ(slow.cl, 4u);
  EXPECT_EQ(slow.tras, 9u);  // 28.33ns -> 8.5 -> 9
  EXPECT_EQ(slow.twr, 4u);
  // CU latencies are cycle-fixed (logic scales with the clock).
  EXPECT_EQ(slow.c1_latency, base.c1_latency);
  EXPECT_EQ(slow.c2_latency, base.c2_latency);
  EXPECT_EQ(slow.scalar_bu_latency, base.scalar_bu_latency);
}

TEST(Config, FrequencyIdentityAtNominal) {
  const DramTiming base = hbm2e_timing();
  const DramTiming same = base.at_frequency(1200.0);
  EXPECT_EQ(same.cl, base.cl);
  EXPECT_EQ(same.tras, base.tras);
  EXPECT_EQ(same.burst, base.burst);
}

TEST(Config, NsPerCycle) {
  const DramTiming t = hbm2e_timing();
  EXPECT_NEAR(t.ns_per_cycle(), 0.8333, 1e-3);
  EXPECT_NEAR(t.cycles_to_us(12000), 10.0, 1e-9);
  EXPECT_THROW(t.at_frequency(0), std::invalid_argument);
}

// ------------------------------------------------------------------- array

TEST(DramArray, WordAddressingRoundTrips) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 16;  // keep the test array small
  DramArray array(g);
  array.write_word(3, 7, 5, 0xdeadbeef);
  EXPECT_EQ(array.read_word(3, 7, 5), 0xdeadbeefu);
  EXPECT_EQ(array.read_word(3, 7, 4), 0u);

  // Linear addressing agrees with (row, atom, lane).
  const std::size_t linear = (3 * 32 + 7) * 8 + 5;
  EXPECT_EQ(array.read_linear(linear), 0xdeadbeefu);
  array.write_linear(linear + 1, 42);
  EXPECT_EQ(array.read_word(3, 7, 6), 42u);
}

TEST(DramArray, AtomAccess) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 4;
  DramArray array(g);
  const std::vector<std::uint32_t> atom{1, 2, 3, 4, 5, 6, 7, 8};
  array.write_atom(1, 2, atom);
  const auto view = array.read_atom(1, 2);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), atom.begin()));
}

TEST(DramArray, OutOfRangeThrows) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 4;
  DramArray array(g);
  EXPECT_THROW(array.read_word(4, 0, 0), std::invalid_argument);
  EXPECT_THROW(array.read_word(0, 32, 0), std::invalid_argument);
  EXPECT_THROW(array.read_word(0, 0, 8), std::invalid_argument);
  // Writes and linear/atom accesses keep the same checks, and a rejected
  // write materialises nothing.
  EXPECT_THROW(array.write_word(4, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(array.read_atom(0, 32), std::invalid_argument);
  EXPECT_THROW(array.write_atom(4, 0, std::vector<std::uint32_t>(8, 1)),
               std::invalid_argument);
  EXPECT_THROW(array.write_atom(0, 0, std::vector<std::uint32_t>(7, 1)),
               std::invalid_argument);
  EXPECT_THROW(array.read_linear(g.words_per_bank()), std::invalid_argument);
  EXPECT_THROW(array.write_linear(g.words_per_bank(), 1),
               std::invalid_argument);
  EXPECT_EQ(array.rows_materialised(), 0u);
}

TEST(DramArray, FreshBankHasNoRowsAndReadsZero) {
  const DramGeometry g = hbm2e_geometry();  // full 32768-row bank
  const DramArray array(g);
  EXPECT_EQ(array.rows_materialised(), 0u);
  const std::uint32_t last_row = g.rows_per_bank - 1;
  EXPECT_EQ(array.read_word(last_row, 31, 7), 0u);
  EXPECT_EQ(array.read_linear(g.words_per_bank() - 1), 0u);
  for (const std::uint32_t w : array.read_atom(17, 3)) EXPECT_EQ(w, 0u);
  EXPECT_EQ(array.rows_materialised(), 0u);  // reads never materialise
}

TEST(DramArray, OneWriteMaterialisesExactlyOneRow) {
  const DramGeometry g = hbm2e_geometry();
  DramArray array(g);
  array.write_word(9, 4, 2, 77);
  EXPECT_EQ(array.rows_materialised(), 1u);
  // The rest of the written row, and its neighbours, still read zero.
  EXPECT_EQ(array.read_word(9, 4, 2), 77u);
  EXPECT_EQ(array.read_word(9, 4, 3), 0u);
  EXPECT_EQ(array.read_word(8, 4, 2), 0u);
  EXPECT_EQ(array.read_word(10, 4, 2), 0u);
  // Further writes to the same row reuse its storage.
  array.write_atom(9, 0, std::vector<std::uint32_t>(8, 5));
  array.write_linear(9 * g.words_per_row() + 100, 6);
  EXPECT_EQ(array.rows_materialised(), 1u);
  array.write_linear(10 * g.words_per_row(), 1);
  EXPECT_EQ(array.rows_materialised(), 2u);
}

TEST(DramArray, LinearAndAtomAddressingAgree) {
  DramGeometry g = hbm2e_geometry();
  g.rows_per_bank = 8;
  DramArray array(g);
  // Fill rows 2 and 5 through linear addressing, read back by atom.
  for (const std::uint32_t row : {2u, 5u})
    for (std::size_t w = 0; w < g.words_per_row(); ++w)
      array.write_linear(row * g.words_per_row() + w,
                         static_cast<std::uint32_t>(row * 1000 + w));
  EXPECT_EQ(array.rows_materialised(), 2u);
  for (const std::uint32_t row : {2u, 5u})
    for (std::uint32_t atom = 0; atom < g.atoms_per_row; ++atom) {
      const auto view = array.read_atom(row, atom);
      for (std::uint32_t lane = 0; lane < view.size(); ++lane) {
        const std::size_t w = atom * g.words_per_atom() + lane;
        EXPECT_EQ(view[lane], row * 1000 + w);
        EXPECT_EQ(array.read_word(row, atom, lane), view[lane]);
      }
    }
  // ...and the reverse: atom writes are visible at their linear indices.
  array.write_atom(3, 31, std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8});
  const std::size_t base = 3 * g.words_per_row() + 31 * g.words_per_atom();
  for (std::uint32_t lane = 0; lane < 8; ++lane)
    EXPECT_EQ(array.read_linear(base + lane), lane + 1);
}

// ------------------------------------------------------------- bank timing

TEST(BankTiming, ActToColumnRespectsTrcd) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(100, 5);
  EXPECT_EQ(bank.open_row(), 5);
  // A column command at t=100 must be deferred to 100 + tRCD.
  EXPECT_EQ(bank.earliest_column(100), 100 + t.trcd);
  // After tRCD has long passed, t_min dominates.
  EXPECT_EQ(bank.earliest_column(200), 200u);
}

TEST(BankTiming, ColumnToColumnRespectsTccd) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t first = bank.earliest_column(0);
  bank.issue_read(first);
  EXPECT_EQ(bank.earliest_column(first), first + t.tccd);
}

TEST(BankTiming, ReadDataLatencyIsClPlusBurst) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t at = bank.earliest_column(0);
  EXPECT_EQ(bank.issue_read(at), at + t.cl + t.burst);
}

TEST(BankTiming, PrechargeRespectsTras) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(10, 1);
  EXPECT_EQ(bank.earliest_pre(10), 10 + t.tras);
}

TEST(BankTiming, PrechargeRespectsWriteRecovery) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t wr_at = bank.earliest_column(0);
  const std::uint64_t data_end = bank.issue_write(wr_at);
  EXPECT_EQ(data_end, wr_at + t.cwl + t.burst);
  // PRE must wait until tWR after the write data finished.
  EXPECT_GE(bank.earliest_pre(0), data_end + t.twr);
}

TEST(BankTiming, ActAfterPrechargeRespectsTrp) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const std::uint64_t pre_at = bank.earliest_pre(0);
  bank.issue_pre(pre_at);
  EXPECT_EQ(bank.open_row(), BankTiming::kNoOpenRow);
  EXPECT_EQ(bank.earliest_act(0), pre_at + t.trp);
}

TEST(BankTiming, IllegalTransitionsThrow) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  EXPECT_THROW(bank.earliest_pre(0), std::logic_error);     // nothing open
  EXPECT_THROW(bank.earliest_column(0), std::logic_error);  // nothing open
  bank.issue_act(0, 3);
  EXPECT_THROW(bank.earliest_act(100), std::logic_error);  // already open
}

TEST(BankTiming, CountsCommands) {
  const DramTiming t = hbm2e_timing();
  BankTiming bank(t);
  bank.issue_act(0, 1);
  const auto c1 = bank.earliest_column(0);
  bank.issue_read(c1);
  bank.issue_write(bank.earliest_column(c1));
  bank.issue_pre(bank.earliest_pre(0));
  EXPECT_EQ(bank.act_count(), 1u);
  EXPECT_EQ(bank.read_count(), 1u);
  EXPECT_EQ(bank.write_count(), 1u);
  EXPECT_EQ(bank.pre_count(), 1u);
}

// ----------------------------------------------------------------- energy

TEST(Energy, BreakdownArithmetic) {
  EnergyParams params;
  params.act_pre_pj = 1000;
  params.column_pj = 100;
  params.bu_op_pj = 10;
  params.param_pj = 5;
  params.background_mw = 50;

  EnergyCounts counts;
  counts.activations = 4;
  counts.column_transfers = 20;
  counts.butterflies = 100;
  counts.param_loads = 2;

  const auto e = compute_energy(params, counts, /*elapsed_ns=*/2000);
  EXPECT_DOUBLE_EQ(e.activation_nj, 4.0);
  EXPECT_DOUBLE_EQ(e.column_nj, 2.0);
  EXPECT_DOUBLE_EQ(e.compute_nj, 1.0);
  EXPECT_DOUBLE_EQ(e.param_nj, 0.01);
  EXPECT_DOUBLE_EQ(e.background_nj, 100.0);  // 50 mW * 2000 ns = 100 nJ
  EXPECT_DOUBLE_EQ(e.total_nj(), 4.0 + 2.0 + 1.0 + 0.01 + 100.0);
}

// ---------------------------------------------------------------- command

TEST(Command, DescribeIsHumanReadable) {
  Command act{.kind = CmdKind::kAct, .row = 7};
  EXPECT_NE(describe(act).find("ACT"), std::string::npos);
  EXPECT_NE(describe(act).find("row=7"), std::string::npos);

  Command c2{.kind = CmdKind::kC2, .buf = 0, .buf2 = 1, .tfg_reset = true};
  const auto s = describe(c2);
  EXPECT_NE(s.find("C2"), std::string::npos);
  EXPECT_NE(s.find("tfg-reset"), std::string::npos);
}

TEST(Command, KindPredicates) {
  EXPECT_TRUE(is_column_command(CmdKind::kCuRead));
  EXPECT_TRUE(is_column_command(CmdKind::kScalarWrite));
  EXPECT_FALSE(is_column_command(CmdKind::kC1));
  EXPECT_TRUE(is_compute_command(CmdKind::kC2));
  EXPECT_TRUE(is_compute_command(CmdKind::kScalarBu));
  EXPECT_FALSE(is_compute_command(CmdKind::kAct));
}

}  // namespace
}  // namespace nttpim::dram
