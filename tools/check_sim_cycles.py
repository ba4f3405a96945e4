#!/usr/bin/env python3
"""Check an e2ebench result against the committed simulated-cycle baseline.

    python3 e2ebench/run.py --workload compile-heavy --seed 1 --seconds 2 \
        --trace 0 > out.txt
    python3 tools/check_sim_cycles.py compile-heavy out.txt

Reads the JSON result (the last line of out.txt that is a JSON object) and
compares its sim_cycles_geomean with the "e2ebench" entry of
BENCH_baseline.json (or the file given as a third argument), recorded at
the same --seed. Simulated
cycles are the machine's semantics, not a timing: they do not depend on the
host or on --seconds, so any difference beyond the relative tolerance,
which only absorbs last-ulp libm differences in the geomean, is a change in
what the program computes. Exit 0 when equal, 1 when not.
"""
import json
import sys


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    workload, result_path = argv[0], argv[1]
    baseline_path = argv[2] if len(argv) == 3 else "BENCH_baseline.json"
    with open(result_path) as f:
        result = [line for line in f.read().splitlines() if line.startswith("{")]
    got = json.loads(result[-1])["metrics"]["sim_cycles_geomean"]["value"]
    with open(baseline_path) as f:
        pinned = json.load(f)["e2ebench"]
    want = pinned["sim_cycles_geomean"][workload]
    rel = abs(got - want) / abs(want)
    verdict = "ok" if rel <= pinned["rel_tol"] else "CHANGED"
    print(f"{workload} sim_cycles_geomean at seed {pinned['seed']}: "
          f"got {got!r}, baseline {want!r}, rel diff {rel:.3g}: {verdict}")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
