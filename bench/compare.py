"""Compare two result sets of the benchmark, such as a parent commit and a
change.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines that ``bench/run.py --record FILE`` appends,
one per run.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints both medians, both quartile ranges, the ratio
change/parent, and a verdict against the metric's bound:

- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the change's median is better by more than the bound;
- ``unchanged``: within the bound either way;
- ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, so the medians cannot be told apart at that bound.

Traced runs (``--trace 1``) are skipped; they carry no end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load(path: str) -> dict:
    """``{workload: {metric: [values]}}`` from a JSON-lines result file."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            per = out.setdefault(rec["workload"], {})
            for name, metric in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(metric["value"])
    return out


def summary(values):
    """Median, first and third quartile, and the quartile spread / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(parent, change, bound: float, better: str) -> tuple[float, str]:
    p_med, _, _, p_spread = summary(parent)
    c_med, _, _, c_spread = summary(change)
    ratio = c_med / p_med if p_med else float("inf")
    if p_spread > bound or c_spread > bound:
        return ratio, "unresolved"
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return ratio, "worse"
    if worse < -bound:
        return ratio, "better"
    return ratio, "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[str]:
    lines = [
        f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':<36} "
        f"{'change median [q1, q3]':<36} {'ratio':>7} {'bound':>6}  verdict"
    ]
    for workload in sorted(set(parent) | set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = parent.get(workload, {}).get(name)
            c = change.get(workload, {}).get(name)
            if not p or not c:
                lines.append(f"{workload:<16} {name:<18} missing on one side")
                continue
            pm, pq1, pq3, _ = summary(p)
            cm, cq1, cq3, _ = summary(c)
            ratio, word = verdict(p, c, metric["bound"], metric["better"])
            lines.append(
                f"{workload:<16} {name:<18} "
                f"{f'{pm:.6g} [{pq1:.6g}, {pq3:.6g}] n={len(p)}':<36} "
                f"{f'{cm:.6g} [{cq1:.6g}, {cq3:.6g}] n={len(c)}':<36} "
                f"{ratio:7.4f} {metric['bound']:6.3f}  {word}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=BENCHMARK_JSON,
                        help="BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    print("\n".join(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
