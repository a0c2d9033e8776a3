#!/usr/bin/env python3
"""The benchmark's own steadiness test.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload briefly with two seeds and checks that:
  - each run is correct (every output verified, every consistency check held)
    and prints exactly the metrics BENCHMARK.json declares, with its units;
  - the work composition the binary reports is identical across the seeds;
  - the modeled metrics of paper_sweep and serve_backlog, and the ACT count
    of serve_open (fixed by its composition), are bit-identical across them
    (serve_backlog's energy to a relative 1e-12: see ENERGY_REL_TOL);
  - paper_latency_err_pct reads 12.98 % (+-0.01) in every run;
  - the traced run of every workload passes its consistency checks.
Exits 0 when all hold, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
MODELED = ("modeled_cycles_per_op", "modeled_acts_per_op",
           "modeled_energy_uj_per_op", "paper_latency_err_pct")
EXACT = {
    "paper_sweep": MODELED,
    "serve_backlog": MODELED,
    "serve_open": ("modeled_acts_per_op", "paper_latency_err_pct"),
}
# PimBackend sums pass energies in floating point, so a staged round's
# energy can differ in its last bits with the grouping of passes.
ENERGY_REL_TOL = {"serve_backlog": 1e-12}
PAPER_ERR_PCT = 12.98


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    composition = [l for l in lines if l.startswith("# composition:")]
    return proc.returncode, result, composition, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    failures = []
    with open(SPEC) as f:
        spec = json.load(f)
    declared = {
        trace: [(m["name"], m["unit"]) for m in spec[key]]
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def printed(result):
        return [(k, v["unit"]) for k, v in result["metrics"].items()]

    for workload, exact in EXACT.items():
        runs = [run(workload, seed, args.seconds, 0) for seed in (11, 12)]
        for seed, (code, result, _, out) in zip((11, 12), runs):
            good = code == 0 and result is not None and result["correct"]
            expect(good, "%s seed %d runs correct" % (workload, seed))
            if not good:
                print(out[-3000:])
                continue
            expect(printed(result) == declared[0],
                   "%s prints the declared end-to-end metrics" % workload)
        if any(r[1] is None for r in runs):
            continue
        expect(runs[0][2] != [] and runs[0][2] == runs[1][2],
               "%s composition identical across seeds" % workload)
        for name in exact:
            a, b = (r[1]["metrics"][name]["value"] for r in runs)
            tol = ENERGY_REL_TOL.get(workload, 0) \
                if name == "modeled_energy_uj_per_op" else 0
            expect(abs(a - b) <= tol * abs(a),
                   "%s %s identical across seeds%s (%r, %r)"
                   % (workload, name, " to %g" % tol if tol else " bit for bit",
                      a, b))
        for r in runs:
            err = r[1]["metrics"]["paper_latency_err_pct"]["value"]
            expect(abs(err - PAPER_ERR_PCT) <= 0.01,
                   "%s paper_latency_err_pct %.4f within 12.98 +- 0.01"
                   % (workload, err))
        code, result, _, out = run(workload, 13, args.seconds, 1)
        good = code == 0 and result is not None and result["correct"]
        expect(good, "%s traced run passes its consistency checks" % workload)
        if not good:
            print(out[-3000:])
        else:
            expect(printed(result) == declared[1],
                   "%s prints the declared per-layer metrics" % workload)

    print("selftest: %s" % ("clean" if not failures else
                            "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
