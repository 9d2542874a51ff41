"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the reports run.py writes to .bench_out/, one per
(workload, seed). Runs of the same workload and seed on the two sides form a
pair; run them alternating which side goes first. For every workload and
end-to-end metric of BENCHMARK.json the table gives each side's median and
quartiles, the pairs the change won (ties count for neither) and a verdict,
the first of these that holds:

  better        the change won at least nine tenths of the pairs, the
                medians differ by more than the parent's quartile distance,
                the change failed no more ops than the parent, and no run
                was cut short (below)
  worse         the change's median is worse than the parent's by more than
                the metric's bound
  unresolved    the spread of either side, quartile distance over median,
                is wider than the bound, and not every change run reads
                better than every parent run; or a run was cut short
  within-bound  none of the above: no gain shown and no regression

A run is cut short when --seconds passed before its whole op set ran; it
then covers fewer ops than a full run and its times cannot be compared
with one. A pair whose two runs left different numbers of ops unstarted
makes every metric but setup_s unresolved, unless it reads worse: a slow
change that was cut short still reads worse, since the cut only lowers its
wall_s.

The latency percentiles have no bound; for them "worse" is the mirror of
"better": the parent won at least nine tenths of the pairs and the medians
differ by more than the parent's quartile distance.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import workloads


def load_runs(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> untraced report, with every metric's value in "values"."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        with open(path) as fh:
            report = json.load(fh)
        metrics = {**report["metrics"], **report.get("unbounded_metrics", {})}
        report["values"] = {k: m["value"] for k, m in metrics.items()}
        runs.setdefault(report["workload"], {})[report["seed"]] = report
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: dict[int, float],
    change: dict[int, float],
    better: str,
    bound: float | None,
    more_failed: bool,
    cut: bool,
) -> dict:
    sign = 1 if better == "higher" else -1  # sign * (change - parent) > 0 is a gain
    p_q = quartiles(list(parent.values()))
    c_q = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    spread = max((p_q[2] - p_q[0]) / p_q[1], (c_q[2] - c_q[0]) / c_q[1])
    gain = sign * (c_q[1] - p_q[1])
    all_better = all(sign * (c - p) > 0 for c in change.values() for p in parent.values())
    if seeds and wins >= 0.9 * len(seeds) and gain > p_q[2] - p_q[0] and not (more_failed or cut):
        result = "better"
    elif bound is None:
        clear_loss = seeds and losses >= 0.9 * len(seeds) and -gain > p_q[2] - p_q[0]
        result = "worse" if clear_loss else "unresolved"
    elif -gain / p_q[1] > bound:
        result = "worse"
    elif cut or (spread > bound and not all_better):
        result = "unresolved"
    else:
        result = "within-bound"
    return {"parent": p_q, "change": c_q, "pairs": len(seeds), "wins": wins, "verdict": result}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = (load_runs(d) for d in argv)
    print(
        f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'won':>7}  verdict"
    )
    for name in workloads.WORKLOADS:
        if name not in parent or name not in change:
            print(f"{name:<14} no runs on {'both sides' if name not in parent and name not in change else 'one side'}")
            continue
        unbounded = [
            {"name": k, "unit": unit, "better": "lower", "bound": None}
            for k, unit in workloads.UNBOUNDED_UNITS.items()
        ]
        p_runs, c_runs = parent[name], change[name]
        more_failed = sum(r["failed"] for r in c_runs.values()) > sum(
            r["failed"] for r in p_runs.values()
        )
        uneven = any(p_runs[s]["not_started"] != c_runs[s]["not_started"] for s in set(p_runs) & set(c_runs))
        for m in spec["end_to_end"] + unbounded:
            key = m["name"]
            v = verdict(
                {s: r["values"][key] for s, r in p_runs.items()},
                {s: r["values"][key] for s, r in c_runs.items()},
                m["better"],
                m["bound"],
                more_failed,
                uneven and key != "setup_s",
            )

            def fmt(q):
                return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {m['unit']}"

            print(
                f"{name:<14} {key:<16} {fmt(v['parent']):>34} {fmt(v['change']):>34} "
                f"{v['wins']:>3}/{v['pairs']:<3}  {v['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
