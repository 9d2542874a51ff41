"""Command-line interface and output formats (text, LaTeX, JSON).

Exit codes: 0 success, 1 usage error, 2 internal mathematical inconsistency,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from typing import Sequence

from .engine import (
    CoefficientQuery,
    CombinedResult,
    SplitResult,
    coefficient_combined,
    coefficient_split,
    combine,
    constant_term_identity,
    equivalent,
)
from .errors import InternalInconsistency, UsageError
from .exactalg import Atom, QPoly, RationalQZ, ZqPoly
from .latticepoints import best_shift
from .oracle import SweepConfig, VerificationReport, sweep, verify_query
from .symforms import AffineForm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_MISMATCH = 3


# ---------------------------------------------------------------- rendering


def render_multinomial(n: int, latex: bool = False) -> str:
    names = [f"a{i + 1}" for i in range(n)]
    if latex:
        tot = "+".join(f"a_{{{i + 1}}}" for i in range(n))
        dens = " ".join(f"(q)_{{a_{{{i + 1}}}}}" for i in range(n))
        return f"\\frac{{(q)_{{{tot}}}}}{{{dens}}}"
    return f"qMultinomial({','.join(names)})"


def _affine_json(form: AffineForm) -> dict:
    return {"c0": form.constant, "a": list(form.coeffs)}


def _atoms_json(atoms: tuple[tuple[Atom, int], ...]) -> list:
    return [{"q": a.constant, "z": list(a.coeffs), "mult": m} for a, m in atoms]


def _fraction_json(sign: int, unit: AffineForm, numer: list, denom: tuple) -> dict:
    """The one JSON layout of R and of a summand; numer is already JSON."""
    unit = {"q": unit.constant, "z": list(unit.coeffs)}
    return {"sign": sign, "unit": unit, "numer": numer, "denom": _atoms_json(denom)}


def formula_json(r: RationalQZ, meta: dict | None = None) -> dict:
    numer, unit, sign = r.numer.extract_unit()
    terms = [{"q": qe, "z": list(ze), "c": c} for (qe, ze), c in numer.items()]
    out = _fraction_json(sign, unit, terms, r.denom)
    if meta is not None:
        out["meta"] = meta
    return out


def formula_from_json(obj: dict) -> RationalQZ:
    unit = obj["unit"]
    numer = ZqPoly(
        len(unit["z"]),
        [((t["q"], tuple(t["z"])), t["c"]) for t in obj["numer"]],
    )
    denom = tuple((Atom(t["q"], t["z"]), t["mult"]) for t in obj["denom"])
    return RationalQZ(numer.mul_monomial((unit["q"], *unit["z"]), obj["sign"]), denom)


def dumps_canonical(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _qpoly_json(p: QPoly) -> list:
    return [[e, c] for e, c in p.items()]


def split_json(split: SplitResult) -> dict:
    return {
        "terms": [
            {
                "point": {
                    "pi": list(pt.pi),
                    "m": list(pt.m),
                    "alpha": [_affine_json(f) for f in pt.alpha],
                },
                "summand": _fraction_json(s.sign, s.unit, _atoms_json(s.numer), s.denom),
            }
            for pt, s in split.terms
        ],
        "meta": {
            "delta": list(split.delta),
            "shift": list(split.shift_used),
            "points": len(split.terms),
        },
    }


def report_json(rep: VerificationReport) -> dict:
    return {
        "delta": list(rep.delta),
        "a": list(rep.a),
        "shift": list(rep.shift) if not isinstance(rep.shift, str) else rep.shift,
        "match": rep.match,
        "engine": {
            "num": _qpoly_json(rep.engine_numer),
            "den": _qpoly_json(rep.engine_denom),
        },
        "oracle": _qpoly_json(rep.oracle_coeff),
        "seconds": round(rep.seconds, 6),
        "error": rep.error,
    }


# ------------------------------------------------------------------ parsing


def parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def parse_shift(text: str):
    if text in ("auto", "best"):
        return "best"
    return "zero" if text == "zero" else parse_int_vector(text)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a value such as "-2,0,0,2" as an option unless it
        # looks like a negative number; integer lists are values too.
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")

    def error(self, message):  # map argparse failures onto exit code 1
        raise UsageError(message)


@cache  # one parser per process: parse_args leaves it unchanged; do not add to it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdyson", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def ints(p, flag, what, **kwargs):  # a flag holding one integer list
        kwargs["help"] = f"comma-separated {what}"
        p.add_argument(flag, type=parse_int_vector, **kwargs)

    def add_common(p, delta=False, shift=False, formats=("text", "latex", "json")):
        if delta:
            ints(p, "--delta", "integers", required=True)
        if shift:
            policies = "auto | zero | c1,c2,..."
            p.add_argument("--shift", type=parse_shift, default="auto", help=policies)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("coeff", help="compute the rational factor R for delta")
    add_common(p, delta=True, shift=True)
    p.add_argument("--split", action="store_true", help="one term per point")
    p.add_argument(
        "--cross-check-shifts",
        action="store_true",
        help="recompute under other shifts and require equivalence",
    )

    p = sub.add_parser("constant-term", help="the delta = 0 case; R must be 1")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("best-shift", help="minimize the evaluation-set size")
    add_common(p, delta=True, formats=("text", "json"))

    p = sub.add_parser("verify", help="compare against the brute-force oracle")
    add_common(p, delta=True, shift=True, formats=("text", "json"))
    ints(p, "--a", "positive integers", required=True)

    p = sub.add_parser("sweep", help="exhaustive oracle comparison at desk scale")
    ints(p, "--n", "variable counts", default="2,3")
    p.add_argument("--a-max", type=int, default=2)
    p.add_argument("--delta-budget", type=int, default=2)
    add_common(p, formats=("text", "json"))

    p = sub.add_parser("article", help="self-contained theorem + computation trace")
    add_common(p, delta=True, shift=True, formats=("text", "latex"))
    return parser


# ----------------------------------------------------------------- commands


def _emit(body: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(body)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _combined_body(result: CombinedResult, fmt: str) -> str:
    """A combined result as text, LaTeX, or canonical JSON with meta."""
    if fmt == "json":
        meta = {
            "delta": list(result.delta),
            "shift": list(result.shift_used),
            "points": result.point_count,
        }
        return dumps_canonical(formula_json(result.rational, meta))
    latex = fmt == "latex"
    lines = [
        f"delta: {list(result.delta)}",
        f"shift: {list(result.shift_used)}",
        f"points: {result.point_count}",
        f"R = {result.rational.render(latex)}",
        f"coefficient = R * {render_multinomial(len(result.delta), latex)}",
    ]
    return "\n".join(lines) + "\n"


def _cross_check_failure(
    query: CoefficientQuery, split: SplitResult, result: CombinedResult
) -> tuple[int, ...] | None:
    """The first other shift whose R differs from result's, or None.

    Each distinct evaluation set is split and combined once; the query's own
    set is not repeated.
    """
    n = query.n
    best = split.shift_used if query.shift == "best" else best_shift(query.delta)[0]
    # Shifts differing by a constant give the same set: x -> q*x scales the
    # cleared product by q^((n-1)sigma) and prod phi'_i by q^(sum d_i), the
    # same power, so every summand is unchanged.  Compare with c_1 = 0.
    done = {tuple(c - split.shift_used[0] for c in split.shift_used)}
    for alt in ((0,) * n, best, (0,) + (1,) * (n - 1)):
        if alt in done:
            continue
        done.add(alt)
        other = coefficient_combined(CoefficientQuery(delta=query.delta, shift=alt))
        if not equivalent(result.rational, other.rational):
            return alt
    return None


def cmd_coeff(args) -> tuple[str, int]:
    delta = args.delta
    note = ""
    if sum(delta) != 0:
        note = "note: delta does not sum to zero; the coefficient is 0\n"
    query = CoefficientQuery(delta=delta, shift=args.shift)
    split = coefficient_split(query)
    if not args.split or args.cross_check_shifts:
        result = combine(split)
    if args.cross_check_shifts and sum(delta) == 0:
        failed = _cross_check_failure(query, split, result)
        if failed is not None:
            return f"shift cross-check failed under shift {list(failed)}\n", EXIT_MISMATCH
    if args.split:
        if args.format == "json":
            body = dumps_canonical(split_json(split))
        else:
            latex = args.format == "latex"
            lines = [f"delta: {list(delta)}", f"shift: {list(split.shift_used)}"]
            for k, (pt, r) in enumerate(split.terms, 1):
                row = f"term {k}: pi={list(pt.pi)} m={list(pt.m)} R_k = "
                lines.append(row + r.render(latex))
            lines.append(f"total terms: {len(split.terms)}")
            body = note + "\n".join(lines) + "\n"
    else:
        body = _combined_body(result, args.format)
        if args.format != "json":
            body = note + body
    return body, EXIT_OK


def cmd_constant_term(args) -> tuple[str, int]:
    return _combined_body(constant_term_identity(args.n), args.format), EXIT_OK


def cmd_best_shift(args) -> tuple[str, int]:
    delta = args.delta
    shift, size = best_shift(delta)
    if args.format == "json":
        body = dumps_canonical({"delta": list(delta), "shift": list(shift), "size": size})
    else:
        body = f"delta: {list(delta)}\nshift: {list(shift)}\nsize: {size}\n"
    return body, EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    report = verify_query(args.delta, args.a, shift=args.shift)
    if args.format == "json":
        body = dumps_canonical(report_json(report))
    else:
        status = "match" if report.match else "MISMATCH"
        lines = [
            f"delta: {list(report.delta)}  a: {list(report.a)}  -> {status}",
            f"engine: ({report.engine_numer}) / ({report.engine_denom})",
            f"oracle: {report.oracle_coeff}",
        ]
        if report.error:
            lines.append(f"error: {report.error}")
        body = "\n".join(lines) + "\n"
    return body, EXIT_OK if report.match else EXIT_MISMATCH


def cmd_sweep(args) -> tuple[str, int]:
    reports = sweep(
        SweepConfig(n_range=args.n, a_max=args.a_max, delta_budget=args.delta_budget)
    )
    failures = [r for r in reports if not r.match]
    if args.format == "json":
        body = dumps_canonical(
            {
                "total": len(reports),
                "failures": len(failures),
                "reports": [report_json(r) for r in reports],
            }
        )
    else:
        lines = [
            f"{'ok ' if r.match else 'FAIL'} delta={list(r.delta)} "
            f"a={list(r.a)} shift={r.shift}"
            for r in reports
        ]
        lines.append(f"total: {len(reports)}  failures: {len(failures)}")
        body = "\n".join(lines) + "\n"
    return body, EXIT_OK if not failures else EXIT_MISMATCH


def cmd_article(args) -> tuple[str, int]:
    delta, shift = args.delta, args.shift
    n = len(delta)
    if sum(delta) != 0:
        raise UsageError("--delta must sum to zero for article output")
    latex = args.format == "latex"
    split = coefficient_split(CoefficientQuery(delta=delta, shift=shift))
    result = combine(split)

    variables = "1 variable" if n == 1 else f"{n} variables"
    lines = [
        "Theorem.",
        "  The coefficient of "
        + " ".join(f"x{i + 1}^{d}" for i, d in enumerate(delta))
        + " in the q-Dyson product in "
        + f"{variables} equals R * {render_multinomial(n, latex)}, where",
        f"  R = {result.rational.render(latex)}",
        "",
        f"Evaluation set (shift {list(split.shift_used)}):",
    ]
    for k, (pt, _) in enumerate(split.terms):
        alpha = ", ".join(str(f) for f in pt.alpha)
        lines.append(f"  point {k + 1}: pi={list(pt.pi)} m={list(pt.m)} alpha=({alpha})")
    lines += ["", "Per-point rational summands:"]
    lines += (f"  R_{k} = {r.render(latex)}" for k, (_, r) in enumerate(split.terms, 1))
    lines += ["", "Verification appendix:"]
    for sample in ((1,) * n, (2,) * n):
        rep = verify_query(delta, sample, shift=shift, rational=result.rational)
        status = "match" if rep.match else "MISMATCH"
        lines.append(
            f"  a = {list(sample)}: coefficient = {rep.oracle_coeff}  [{status}]"
        )
        if not rep.match:
            break
    return "\n".join(lines) + "\n", EXIT_OK if rep.match else EXIT_MISMATCH


_COMMANDS = {
    "coeff": cmd_coeff,
    "constant-term": cmd_constant_term,
    "best-shift": cmd_best_shift,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "article": cmd_article,
}


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one CLI invocation, write the command's text to stdout or
    --out, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        body, code = _COMMANDS[args.command](args)
        _emit(body, args.out)
        return code
    except (UsageError, OverflowError) as exc:  # or an exponent past the packed range
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:  # a query too large for this machine, not a fault
        sys.stderr.write("usage error: ran out of memory; try a smaller query\n")
        return EXIT_USAGE
    except InternalInconsistency as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
