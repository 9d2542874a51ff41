"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

1. Every workload, untraced and traced, with --seconds 1: the last line of
   stdout has exactly the keys correct/attempted/failed/metrics, its metric
   names and units are those of BENCHMARK.json, and nothing failed.
2. In a copy of the checkout with one pinned formula corrupted, the
   coeff-n4-zero run whose first op uses that formula and the verify-n4 run
   (every verify op checks every formula) report failed ops.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a non-zero code and prints no result.

The copies live in .bench_smoke/ and are removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads

ROOT = workloads.ROOT
SCRATCH = os.path.join(ROOT, ".bench_smoke")
SEED = 1


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dest: str, with_src: bool) -> None:
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(workloads.HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)


def corrupt(root: str, delta: tuple[int, ...]) -> None:
    """Flip the sign of the pinned R of delta."""
    path = os.path.join(root, "perfbench", "data", "formulas.tsv")
    table = workloads.load_pinned(path)
    obj = json.loads(table[delta])
    assert obj["numer"], f"R of {delta} is zero; a sign flip would not change it"
    obj["sign"] = -obj["sign"]
    table[delta] = json.dumps(obj, separators=(",", ":")) + "\n"
    workloads.write_pinned(table, path)


def check_metric_names(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(run(ROOT, name, trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace {trace}: metrics {got} != {want}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            print(f"ok   {name} trace {trace}: {len(got)} metrics, {result['attempted']} ops")


def check_corruption_fails() -> None:
    tree = os.path.join(SCRATCH, "corrupt")
    copy_tree(tree, with_src=True)
    delta = workloads.run_order(workloads.WORKLOADS["coeff-n4-zero"], SEED)[0]
    corrupt(tree, delta)
    for name in ("coeff-n4-zero", "verify-n4"):
        result = result_of(run(tree, name, 0))
        assert result["failed"] > 0 and not result["correct"], f"{name}: {result}"
        print(f"ok   {name} with the formula of {delta} corrupted: "
              f"failed_frac {result['failed'] / result['attempted']:.3g}")


def check_needs_source() -> None:
    tree = os.path.join(SCRATCH, "bare")
    copy_tree(tree, with_src=False)
    proc = run(tree, "coeff-n4-zero", 0)
    assert proc.returncode != 0, "run.py succeeded without src/"
    assert not proc.stdout.strip(), f"run.py printed a result without src/: {proc.stdout!r}"
    print(f"ok   without src/: exit code {proc.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_metric_names(spec)
        check_corruption_fails()
        check_needs_source()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
