// Extension bench: inverse and negacyclic transforms on the PIM.
//
// The paper evaluates the forward NTT only. Our documented extension
// supports INTT (N^{-1} scaling) and the negacyclic post-scale psi^{-i}
// via the zero-operand C2 trick (clear the P buffer, read the atom into S;
// C2 then leaves w_i * S[i] in P — see RowCentricMapper's scale pass).
// This bench quantifies the overhead of the extra scaling pass relative to
// the forward transform.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "sim/runner.h"

int main() {
  using namespace nttpim;
  bench::print_table1_header(
      "Extension: inverse / negacyclic transform overhead (Nb = 4)");

  const std::size_t sizes[] = {256, 1024, 4096};

  TablePrinter table({"N", "forward (us)", "inverse (us)",
                      "inv negacyclic (us)", "scale-pass overhead"});
  for (const std::size_t n : sizes) {
    sim::NttRunConfig config;
    config.n = n;
    config.num_buffers = 4;

    const auto fwd = sim::run_ntt_on_pim(config);
    config.direction = mapping::Direction::kInverse;
    const auto inv = sim::run_ntt_on_pim(config);
    config.negacyclic = true;
    const auto inv_nega = sim::run_ntt_on_pim(config);
    if (!fwd.verified || !inv.verified || !inv_nega.verified) {
      std::cerr << "verification FAILED\n";
      return 1;
    }

    table.add_row({std::to_string(n), TablePrinter::num(fwd.latency_us),
                   TablePrinter::num(inv.latency_us),
                   TablePrinter::num(inv_nega.latency_us),
                   TablePrinter::num(inv.latency_us / fwd.latency_us)});
  }
  table.print(std::cout);
  std::cout << "\nThe scaling pass costs one extra sweep over the data "
               "(one activation per row plus N/8 zero-trick C2 ops).\n";
  return 0;
}
