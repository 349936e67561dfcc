"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the last line that run.py printed for each run, one JSON
object per line, all of one workload and one --trace setting.  For every
metric it prints each side's median and quartiles and how much worse the new
median is, as a share of the base median (negative: better).  End-to-end
metrics are also judged against their bound in BENCHMARK.json.  It exits
with code 1 if any end-to-end metric is worse than its bound, if any new run
reports correct: false, or if the share of failed operations differs between
the two sides (the same workload fails the same operations on both).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    regressed = False
    print(f"{'metric':40s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
          f" {'worse':>8s}")
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        sign = 1.0 if specs[name]["better"] == "lower" else -1.0
        worse = sign * (mn - mb) / mb if mb else 0.0
        verdict = ""
        if "bound" in specs[name]:
            over = worse > specs[name]["bound"]
            regressed |= over
            verdict = f"  {'OVER' if over else 'within'} bound {specs[name]['bound']}"
        print(f"{name:40s} {mb:12.4f} [{quartiles(b)[0]:9.4f}, {quartiles(b)[1]:9.4f}]"
              f" {mn:12.4f} [{quartiles(n)[0]:9.4f}, {quartiles(n)[1]:9.4f}]"
              f" {worse:+8.3f}{verdict}")

    def failed_share(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    shares = failed_share(base), failed_share(new)
    correct = all(r["correct"] for r in base), all(r["correct"] for r in new)
    print(f"failed share: base {shares[0]:.6f} new {shares[1]:.6f}"
          f"{'' if shares[0] == shares[1] else '  DIFFERS'}; "
          f"correct: base {correct[0]} new {correct[1]}")
    regressed |= shares[0] != shares[1] or not correct[1]
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
