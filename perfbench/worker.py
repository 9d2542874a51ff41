"""One workload process, started by run.py.

It sets up (imports qdyson from the checkout's src/, builds the seeded
inputs, loads the pinned formulas), prints ``ready``, and with
``--setup-only`` exits there. Otherwise it runs the ops in a closed loop,
one client and one op at a time, and prints one JSON line of raw results.

Untraced runs time each op as a user would run it. A traced run sends each
op through the benchmark's own copy of the pipeline, with a span around
every call into a module, twice: once with a tracer that records nothing
and once with one that records, in alternating order, so that the cost of
recording can be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import workloads

SRC = os.path.join(workloads.ROOT, "src")

sys.path.insert(0, SRC)
import qdyson  # noqa: E402

if not os.path.abspath(qdyson.__file__).startswith(SRC + os.sep):
    raise ImportError(f"qdyson imported from {qdyson.__file__}, not from {SRC}")

from qdyson import cli, oracle  # noqa: E402
from qdyson.engine import combine_sum  # noqa: E402
from qdyson.latticepoints import best_shift, enumerate_evaluation_set  # noqa: E402
from qdyson.qpochhammer import (  # noqa: E402
    QExpr,
    evaluate_product_at_point,
    normalize_to_rational,
    phi_prime_at_point,
)


class OpTimeout(BaseException):
    """Raised from SIGALRM. Not an Exception, so no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), None, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._open.pop()
            rec[2] = time.perf_counter_ns()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), ns in zip(self.spans, own):
            out[name] += ns / 1e9
        return dict(out)


class NullTracer:
    """The same span call sites as Tracer, recording nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Session:
    """Everything set-up builds: the run order and what each op is checked against."""

    def __init__(self, w: workloads.Workload, seed: int):
        self.w = w
        self.order = workloads.run_order(w, seed)
        self.pinned = workloads.load_pinned()
        if w.kind == "verify":
            self.rationals = [
                (d, cli.formula_from_json(json.loads(self.pinned[d])))
                for d in workloads.delta_pool(w.n)
            ]
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        self.out_path = os.path.join(workloads.OUT_DIR, f"op-{os.getpid()}.json")
        self.counts: Counter = Counter()
        self.last = None  # what the last traced op computed, for count_last

    # -- untraced ops: what a user runs ----------------------------------

    def run_op(self, x) -> str:
        """Run one op; return "" when its output is correct, else why not."""
        if self.w.kind == "verify":
            expansion = oracle.expand_qdyson_product(x)
            bad = [
                d
                for d, r in self.rationals
                if not oracle.verify_query(d, x, expansion=expansion, rational=r).match
            ]
            return f"match=False for delta {bad[0]}" if bad else ""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        # "--delta=<d>": argparse reads "--delta -2,0,0,2" as a missing value.
        argv = ["coeff", f"--delta={workloads.vec_text(x)}", "--format", "json", "--out", self.out_path]
        if self.w.shift != "best":
            argv += ["--shift", self.w.shift]
        rc = cli.run_command(argv)
        if rc != 0:
            return f"exit code {rc}"
        with open(self.out_path) as fh:
            text = fh.read()
        return "" if self._matches_pinned(x, text) else "formula bytes differ from pinned"

    def _matches_pinned(self, delta, text: str) -> bool:
        # The CLI appends "meta" as the last key of the formula object.
        pinned = self.pinned[delta]
        return text.startswith(pinned[:-2] + ',"meta":') and text.endswith("}\n")

    # -- traced ops: the same work, one span per call into a module ------

    def traced_op(self, x, tr) -> str:
        """Like run_op, through the spanned pipeline; keeps in self.last
        what count_last needs, so that counting stays out of the timing."""
        with tr.span("op"):
            if self.w.kind == "verify":
                with tr.span("oracle.expand_qdyson_product"):
                    expansion = oracle.expand_qdyson_product(x)
                bad = []
                for d, r in self.rationals:
                    with tr.span("oracle.verify_query"):
                        if not oracle.verify_query(d, x, expansion=expansion, rational=r).match:
                            bad.append(d)
                self.last = expansion
                return f"traced match=False for delta {bad[0]}" if bad else ""
            terms, rational, text = self._traced_coeff(x, tr)
        self.last = (terms, rational)
        return "" if text == self.pinned[x] else "traced formula differs from pinned"

    def count_last(self) -> None:
        if self.w.kind == "verify":
            self.counts["oracle.expansion_terms"] += sum(len(c.items()) for _, c in self.last.items())
            self.counts["oracle.comparisons"] += len(self.rationals)
        else:
            self._count_combine(*self.last)

    def _traced_coeff(self, delta, tr: Tracer):
        n = len(delta)
        if self.w.shift == "best":
            with tr.span("latticepoints.best_shift"):
                shift = best_shift(delta)[0]
        else:
            shift = (0,) * n
        with tr.span("latticepoints.enumerate_evaluation_set"):
            evalset = enumerate_evaluation_set(delta, shift)
        self.counts["latticepoints.points"] += len(evalset.points)
        terms = []
        for pt in evalset.points:
            with tr.span("qpochhammer.evaluate_product_at_point"):
                value = evaluate_product_at_point(pt.alpha)
            with tr.span("qpochhammer.phi_prime_at_point"):
                phi = QExpr.identity(n)
                for i in range(n):
                    phi = phi * phi_prime_at_point(i, pt.alpha[i], evalset.grid)
                ratio = value / phi
            with tr.span("qpochhammer.normalize_to_rational"):
                terms.append(normalize_to_rational(ratio, n))
        with tr.span("engine.combine_sum"):
            rational = combine_sum(terms, n)
        with tr.span("cli.render"):
            text = cli.dumps_canonical(cli.formula_json(rational))
        return terms, rational, text

    def _count_combine(self, terms, rational) -> None:
        """The size of the flat-LCM sum, recomputed outside every span."""
        lcm: Counter = Counter()
        for t in terms:
            for atom, mult in t.denom:
                lcm[atom] = max(lcm[atom], mult)
        self.counts["engine.lcm_atoms"] += sum(lcm.values())
        self.counts["engine.cleared_terms"] += sum(
            len(t.cleared_numer(lcm - t.denom_counter()).items()) for t in terms
        )
        self.counts["engine.result_terms"] += len(rational.numer.items())
        self.counts["engine.result_atoms"] += sum(m for _, m in rational.denom)


def timed(fn, *args) -> tuple[float, str]:
    """Seconds taken and failure reason ("" if none) of one call under the timeout."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, workloads.OP_TIMEOUT_S)
    try:
        error = fn(*args)
    except OpTimeout:
        error = f"timeout after {workloads.OP_TIMEOUT_S} s"
    except Exception as exc:  # the loop must go on; the failure is reported
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, error


def run(session: Session, seconds: float, trace: bool) -> dict:
    """Untraced: the run order, stopping early if ``seconds`` pass. Traced:
    a fixed third of it, so two traced runs count the same work."""
    order = workloads.traced_order(session.w, session.order) if trace else session.order
    tracer, null = Tracer(), NullTracer()
    ops = []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    for k, x in enumerate(order):
        if time.perf_counter() >= deadline:
            break
        if not trace:
            latency, error = timed(session.run_op, x)
            ops.append({"input": list(x), "latency_s": latency, "error": error})
            continue
        tracer.op = k
        if k % 2 == 0:
            u_s, u_err = timed(session.traced_op, x, null)
        t_s, t_err = timed(session.traced_op, x, tracer)
        if not t_err:
            session.count_last()
        if k % 2 == 1:
            u_s, u_err = timed(session.traced_op, x, null)
        untraced_s += u_s
        traced_s += t_s
        ops.append({"input": list(x), "latency_s": u_s, "traced_s": t_s, "error": u_err or t_err})
    wall = time.perf_counter() - start
    if os.path.exists(session.out_path):
        os.remove(session.out_path)
    out = {
        "ops": ops,
        "not_started": len(order) - len(ops),
        "measured_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        out["self_s"] = tracer.self_seconds()
        out["counts"] = dict(session.counts)
        out["untraced_s"] = untraced_s
        out["traced_s"] = traced_s
        out["spans"] = [
            {"name": name, "start_ns": s, "end_ns": e, "parent": p, "op": op}
            for name, s, e, p, op in tracer.spans
        ]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    session = Session(workloads.WORKLOADS[args.workload], args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run(session, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
