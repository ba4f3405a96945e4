#!/usr/bin/env python3
"""Check a bench report's tables against the committed baseline.

    ./build/bench/bench_csi --json bench-csi-report.json \
        --benchmark_filter='^$'
    python3 tools/check_bench_tables.py bench_csi bench-csi-report.json

Reads the report written by a gated bench's --json flag and compares its
"tables" with those of the bench's entry in BENCH_baseline.json (or the
file given as a third argument), under "benches" -> <bench>. Use it for
benches whose tables hold only deterministic figures, such as bench_csi's
schedule costs and simulated cycles: any difference is a change in what
the program computes. Prints the first differing row. Exit 0 when equal,
1 when not.
"""
import json
import sys


def first_difference(got, want):
    if len(got) != len(want):
        return f"{len(got)} tables, baseline has {len(want)}"
    for g, w in zip(got, want):
        if g.get("title") != w.get("title") or g.get("headers") != w.get("headers"):
            return f"table {w.get('title')!r}: title or headers differ"
        grows, wrows = g.get("rows", []), w.get("rows", [])
        for i, (gr, wr) in enumerate(zip(grows, wrows)):
            if gr != wr:
                return f"table {w['title']!r} row {i}: got {gr}, baseline {wr}"
        if len(grows) != len(wrows):
            return (f"table {w['title']!r}: {len(grows)} rows, "
                    f"baseline has {len(wrows)}")
    return None


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench, report_path = argv[0], argv[1]
    baseline_path = argv[2] if len(argv) == 3 else "BENCH_baseline.json"
    with open(report_path) as f:
        got = json.load(f)["tables"]
    with open(baseline_path) as f:
        want = json.load(f)["benches"][bench]["tables"]
    diff = first_difference(got, want)
    print(f"{bench} tables vs {baseline_path}: "
          f"{'ok' if diff is None else 'CHANGED: ' + diff}")
    return 0 if diff is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
