// The extended DRAM command set of NTT-PIM.
//
// Standard commands (ACT/PRE) plus the paper's PIM extensions (Sec. III.D):
//  - CU-read / CU-write: column accesses whose data stops at an atom buffer
//    (P = GSA or a secondary S buffer) instead of chip I/O;
//  - C1: intra-atom NTT on one buffer (Algorithm 1);
//  - C2: one Na-way vectorized butterfly across two buffers (Algorithm 2);
//  - PARAM: load a CU parameter register via the global buffer;
//  - scalar ops used by the single-buffer (Nb=1) fallback mapping;
//  - BUF_ZERO: clear a buffer (enables the zero-operand C2 scaling trick
//    used for INTT/negacyclic support — our documented extension).
#pragma once

#include <cstdint>
#include <string>

namespace nttpim::dram {

enum class CmdKind : std::uint8_t {
  kAct,          ///< activate a row
  kPre,          ///< precharge (close) the open row
  kRefresh,      ///< per-bank refresh (engine-inserted, never in traces)
  kCuRead,       ///< column read into atom buffer `buf`
  kCuWrite,      ///< column write from atom buffer `buf`
  kC1,           ///< intra-atom NTT on buffer `buf` (`stages` stages)
  kC2,           ///< vectorized BU across buffers `buf` (P side) and `buf2`
  kParam,        ///< load parameter register `param_reg` with `param_value`
  kBufZero,      ///< clear buffer `buf`
  kScalarRead,   ///< column read via GSA, latch word `lane` into scalar reg
  kScalarWrite,  ///< store scalar reg into GSA word `lane`, column write
  kScalarBu,     ///< one butterfly on scalar regs (r0, r1)
};

/// CU parameter registers reachable through PARAM commands.
enum class ParamReg : std::uint8_t {
  kModulus,    ///< q
  kTfgOmega0,  ///< TFG sequence start value
  kTfgStep,    ///< TFG per-butterfly step r_omega
  kC1Root,     ///< root of unity of order 2^stages used by C1's twiddle logic
};

/// Mapping regime annotation (paper Sec. IV.B), carried for statistics.
enum class Regime : std::uint8_t {
  kNone,
  kSetup,      ///< parameter loading / prologue
  kIntraAtom,  ///< first log Na stages (C1)
  kIntraRow,   ///< next log(R/Na) stages (C2, buffer hits)
  kInterRow,   ///< remaining stages (C2, row activations)
  kScale,      ///< elementwise scaling passes (INTT / negacyclic extension)
};

struct Command {
  CmdKind kind = CmdKind::kAct;
  std::uint16_t bank = 0;
  std::uint32_t row = 0;   ///< target row (ACT) / expected open row (column)
  std::uint16_t atom = 0;  ///< column address in atoms
  std::uint8_t lane = 0;   ///< word lane for scalar commands
  std::uint8_t buf = 0;    ///< buffer operand (P side for C2)
  std::uint8_t buf2 = 0;   ///< second buffer operand (S side for C2)
  std::uint8_t stages = 3; ///< C1: number of NTT stages (log2 of point count)
  std::uint8_t scalar_reg = 0;  ///< scalar register index (0 or 1)
  bool tfg_reset = false;  ///< reload TFG current value from omega0
  ParamReg param_reg = ParamReg::kModulus;
  std::uint32_t param_value = 0;
  Regime regime = Regime::kNone;

  friend bool operator==(const Command&, const Command&) = default;
};

const char* to_string(CmdKind kind);
const char* to_string(ParamReg reg);
const char* to_string(Regime regime);

/// One-line human-readable rendering (used by the command_trace example).
std::string describe(const Command& cmd);

/// True for commands that occupy a column-command slot (tCCD applies).
bool is_column_command(CmdKind kind);

/// True for CU compute commands (C1/C2/scalar BU).
bool is_compute_command(CmdKind kind);

}  // namespace nttpim::dram
