"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/run.py --workload synth_cold --seed 1 --record parent.jsonl
    ...  (at least ten seeds per side, alternating which side runs first)
    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and end-to-end metric in ``BENCHMARK.json`` it prints the
median and quartiles of each side and a verdict:

* ``improved`` — the change wins at least nine tenths of the runs paired in
  order (ties count for neither, at least ten pairs) and the medians differ
  by more than the parent's own quartile spread;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  the wider side) exceeds the metric's bound, unless every change run reads
  better than every parent run;
* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``within bound`` — otherwise.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cmed - pmed) > p3 - p1):
        return "improved"
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (pmed - cmed) > bound * abs(pmed):
        return "worse"
    return "within bound"


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from ``run.py --record`` lines of
    untraced runs of single workloads."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] or rec["workload"] == "all":
                continue
            metrics = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def compare(parent: dict, change: dict, spec: dict) -> list[tuple]:
    """One row per (workload, metric) both sides measured."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p = parent[workload].get(m["name"])
            c = change[workload].get(m["name"])
            if not p or not c:
                continue
            rows.append((workload, m["name"], m["unit"], quartiles(p),
                         quartiles(c), len(p), len(c),
                         verdict(p, c, m["better"], m["bound"])))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare benchmark results.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    rows = compare(load(args.parent), load(args.change), spec)
    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s}  verdict")
    for wl, name, unit, pq, cq, np_, nc, v in rows:
        delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
        print(f"{wl:15s} {name:12s} "
              f"{pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}] {unit} n={np_:<3d} "
              f"{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {unit} n={nc:<3d} "
              f"{delta:+7.1f}%  {v}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
