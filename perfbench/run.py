"""Benchmark entry point.

    python3 perfbench/run.py --workload coeff-n4-zero --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 44

Each workload runs in a fresh worker process (worker.py). Set-up is timed
from process start to the worker's "ready" line, in that worker and in
set-up-only workers started before and after it, and reported as the
median. The run prints every metric by name and unit, writes a full report
with the environment to .bench_out/, and prints as its last line one JSON
object with the keys "correct", "attempted", "failed" and "metrics".
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

WORKER = os.path.join(workloads.HERE, "worker.py")
# Set-up-only workers timed before and after the measured one. The host's
# speed drifts over seconds, so samples spread over the run make a steadier
# median than the same number taken back to back.
SETUP_RUNS_EACH_SIDE = 4
TIME_LIMIT_S = 170.0  # one workload run must end within 180 s


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for "ready"; returns it and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker to exit by ``deadline`` (monotonic); kill it if it
    does not. Returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit and was killed")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def time_setups(argv: list[str], count: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(count):
        proc, setup_s = start_worker(argv + ["--setup-only"])
        finish(proc, deadline)
        samples.append(setup_s)
    return samples


def run_worker(argv: list[str], deadline: float) -> tuple[dict, float]:
    proc, setup_s = start_worker(argv)
    out = finish(proc, deadline)
    return json.loads(out.strip().splitlines()[-1]), setup_s


def latency_summary(ops: list[dict]) -> dict:
    """Median and tail latency. A failed op counts as at least the timeout,
    so it misses any latency limit. The tail is the highest percentile with
    at least ten samples beyond it."""
    lat = sorted(
        max(op["latency_s"], workloads.OP_TIMEOUT_S) if op["error"] else op["latency_s"]
        for op in ops
    )
    n = len(lat)
    beyond = 10 if n > 10 else 0
    return {
        "p50_s": statistics.median(lat),
        "tail_s": lat[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
        "samples": n,
    }


def end_to_end(raw: dict, setups: list[float], lat: dict) -> dict[str, float]:
    ok = sum(1 for op in raw["ops"] if not op["error"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": raw["measured_s"],
        "ops_per_s": ok / raw["measured_s"],
        "latency_p50_ms": lat["p50_s"] * 1e3,
        "latency_tail_ms": lat["tail_s"] * 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }


def per_layer(raw: dict, names: list[str]) -> dict[str, float]:
    counts = raw["counts"]
    result_terms = counts.get("engine.result_terms", 0)
    out = {
        "engine.swell_ratio": counts.get("engine.cleared_terms", 0) / result_terms
        if result_terms
        else 0.0,
        "trace.overhead_frac": raw["traced_s"] / raw["untraced_s"] - 1,
    }
    for name in names:
        if name.endswith(".self_s"):
            out[name] = raw["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name not in out:
            out[name] = counts.get(name, 0)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository or git is
    missing. Directories above the checkout are not searched."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(workloads.ROOT)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # An untimed warm-up pays the first-start costs (file cache, and bytecode
    # unless PYTHONDONTWRITEBYTECODE is set) that users pay once per install.
    # Traced runs report no set-up time, so they time only the measured worker.
    setup_runs = 0 if trace else SETUP_RUNS_EACH_SIDE
    time_setups(argv, 1, deadline)
    setups = time_setups(argv, setup_runs, deadline)
    raw, main_setup = run_worker(argv, deadline)
    setups += [main_setup] + time_setups(argv, setup_runs, deadline)
    if not raw["ops"]:
        raise BenchError("no op started before the time limit")
    lat = latency_summary(raw["ops"])
    if trace:
        wanted = spec["per_layer"]
        values = per_layer(raw, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(raw, setups, lat)
    metrics = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]} for m in wanted}
    failures = [op for op in raw["ops"] if op["error"]]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "op_timeout_s": workloads.OP_TIMEOUT_S,
        "run_order_size": len(raw["ops"]) + raw["not_started"],
        "attempted": len(raw["ops"]),
        "failed": len(failures),
        "failed_frac": len(failures) / len(raw["ops"]),
        "not_started": raw["not_started"],
        "measured_s": raw["measured_s"],
        "setup_samples_s": setups,
        "latency": lat,
        "metrics": metrics,
        "unbounded_metrics": {k: {"value": v, "unit": workloads.UNBOUNDED_UNITS[k]} for k, v in values.items()},
        "failures": [{"input": op["input"], "error": op["error"]} for op in failures],
        "ops": raw["ops"],
    }
    for key in ("self_s", "counts", "untraced_s", "traced_s", "spans"):
        if key in raw:
            report[key] = raw[key]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"{name}.seed{seed}.trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    report["path"] = path
    return report


def print_summary(report: dict) -> None:
    lat = report["latency"]
    print(
        f"{report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['attempted']} ops attempted, {report['failed']} failed "
        f"(failed_frac {report['failed_frac']:.4g}), "
        f"{report['not_started']} of the run order not started, "
        f"{report['measured_s']:.3f} s measured"
    )
    for name, m in report["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, m in report["unbounded_metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}  (no bound)")
    if not report["trace"]:
        print(
            f"  latency_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} samples, "
            f"{lat['tail_samples_beyond']} beyond it"
        )
    if report["not_started"]:
        warning = (
            f"WARNING {report['workload']}: --seconds passed with {report['not_started']} of "
            f"{report['run_order_size']} ops not started; its times cover fewer ops than a "
            "full run and cannot be compared with one"
        )
        print(f"  {warning}")
        print(warning, file=sys.stderr)
    for f in report["failures"][:5]:
        print(f"  FAILED {f['input']}: {f['error']}")
    print(f"  report: {os.path.relpath(report['path'], workloads.ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = load_spec()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(spec, name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_summary(report)
    prefix = len(reports) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): v
            for r in reports
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
