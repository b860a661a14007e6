#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the repository root. Checks, in order:
  * the program's own unit checks (perfbench --self-test): a percentile with
    fewer than ten samples beyond it is refused, span self time and
    grouping, bitwise digests;
  * per workload (default: all), through run.py: two runs at one seed give
    an identical trace digest and identical outputs, and a run at a second
    seed passes every output check with zero failed operations.
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys

import run

SEED_A, SEED_B = 2019, 7


def bench(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"], cwd=run.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"FAIL: {workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def expect(ok, what):
    print(("ok  : " if ok else "FAIL: ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    expect(run.build(), "benchmark builds")
    expect(subprocess.run([str(run.BINARY), "--self-test"]).returncode == 0,
           "program unit checks")
    for w in workloads:
        rep1, res1 = bench(w, SEED_A)
        rep2, res2 = bench(w, SEED_A)
        rep3, res3 = bench(w, SEED_B)
        for res, seed in ((res1, SEED_A), (res2, SEED_A), (res3, SEED_B)):
            expect(res["correct"] and res["failed"] == 0,
                   f"{w} seed {seed}: every check passes, no failed operation")
        notes1, notes2, notes3 = rep1["notes"], rep2["notes"], rep3["notes"]
        expect(notes1["output_digest"] == notes2["output_digest"],
               f"{w}: same seed, identical outputs")
        if "trace_digest" in notes1:
            expect(notes1["trace_digest"] == notes2["trace_digest"],
                   f"{w}: same seed, identical trace digest")
            expect(notes1["trace_digest"] != notes3["trace_digest"],
                   f"{w}: another seed, another trace")
        expect(notes1["output_digest"] != notes3["output_digest"],
               f"{w}: another seed, other outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
