"""CLI behaviour: exit codes, output formats, and JSON round-trips."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from qdyson import cli, engine, oracle
from qdyson.cli import (
    EXIT_INCONSISTENT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    dumps_canonical,
    formula_from_json,
    formula_json,
    run_command,
)
from qdyson.engine import (
    CoefficientQuery,
    coefficient_combined,
    coefficient_split,
    equivalent,
)
from qdyson.errors import InternalInconsistency
from qdyson.exactalg import Atom, Summand
from qdyson.oracle import SweepConfig, zero_sum_deltas
from qdyson.symforms import AffineForm


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plant_engine_fault(monkeypatch, delta, shift):
    """Make the oracle's engine call raise InternalInconsistency for one
    (delta, shift) query."""
    real = oracle.coefficient_combined

    def planted(query):
        if (query.delta, query.shift) == (delta, shift):
            raise InternalInconsistency("planted")
        return real(query)

    monkeypatch.setattr(oracle, "coefficient_combined", planted)


def summands_from_json(out):
    """The summands of a ``coeff --split --format json`` output."""

    def atoms(entries):
        return tuple((Atom(t["q"], t["z"]), t["mult"]) for t in entries)

    summands = []
    for term in json.loads(out)["terms"]:
        s = term["summand"]
        unit = AffineForm(s["unit"]["q"], s["unit"]["z"])
        summands.append(Summand(s["sign"], unit, atoms(s["numer"]), atoms(s["denom"])))
    return summands


class TestExitCodes:
    def test_coeff_ok(self, capsys):
        code, out, _ = run(capsys, "coeff", "--delta", "1,-1")
        assert code == EXIT_OK
        assert "R = " in out

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_bad_delta(self, capsys):
        code, _, err = run(capsys, "coeff", "--delta", "1,x")
        assert code == EXIT_USAGE

    def test_bad_shift_length(self, capsys):
        code, _, _ = run(capsys, "coeff", "--delta", "1,-1", "--shift", "0,0,0")
        assert code == EXIT_USAGE

    def test_verify_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--delta", "1,-1", "--a", "1,1")
        assert code == EXIT_OK
        assert "match" in out

    def test_verify_a_validation(self, capsys):
        code, _, _ = run(capsys, "verify", "--delta", "1,-1", "--a", "1,0")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "verify", "--delta", "1,-1", "--a", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, size",
        [
            (("coeff", "--delta=1,-1", "--shift", "9000,0"), "40,513,501"),
            # sized before the oracle expands a = (3,3,3,3,3), which takes seconds
            (
                ("verify", "--delta=1,-1,0,0,0", "--a", "3,3,3,3,3",
                 "--shift", "9000,0,0,0,0"),
                "11,819,644,659,486,035,701",
            ),
        ],
    )
    def test_oversized_shift_fails_fast(self, capsys, argv, size):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: ") and f" {size} evaluation points" in err

    @pytest.mark.parametrize(
        "argv, out",
        [
            (
                ("constant-term", "--n", "11"),
                "delta: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
                "shift: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
                "points: 1\n"
                "R = 1\n"
                "coefficient = R * qMultinomial(a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,a11)\n",
            ),
            (
                ("best-shift", "--delta", "1,-1,0,0,0,0,0,0,0,0,0,0"),
                "delta: [1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
                "shift: [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
                "size: 1\n",
            ),
            (
                ("coeff", "--delta", "1,-1,0,0,0,0,0,0,0,0,0", "--shift", "zero"),
                "delta: [1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
                "shift: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n"
                "points: 2\n"
                "R = (-1 + z1) / ((1 - q*z2*z3*z4*z5*z6*z7*z8*z9*z10*z11))\n"
                "coefficient = R * qMultinomial(a1,a2,a3,a4,a5,a6,a7,a8,a9,a10,a11)\n",
            ),
        ],
    )
    def test_n_past_ten_runs_fast(self, capsys, argv, out):
        start = time.perf_counter()
        assert run(capsys, *argv) == (EXIT_OK, out, "")
        assert time.perf_counter() - start < 1.0

    def test_n_past_the_ceiling_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "constant-term", "--n", "25")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: n = 25 is past this library's ceiling of 24\n"

    def test_best_shift_requires_zero_sum(self, capsys):
        code, _, _ = run(capsys, "best-shift", "--delta", "1,1")
        assert code == EXIT_USAGE

    def test_constant_term_ok(self, capsys):
        code, out, _ = run(capsys, "constant-term", "--n", "3")
        assert code == EXIT_OK
        assert "R = 1" in out

    def test_constant_term_bad_n(self, capsys):
        code, _, _ = run(capsys, "constant-term", "--n", "0")
        assert code == EXIT_USAGE

    def test_verify_reports_an_engine_error(self, capsys, monkeypatch):
        plant_engine_fault(monkeypatch, (1, -1), "zero")
        argv = ("verify", "--delta", "1,-1", "--a", "1,1", "--shift", "zero")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_MISMATCH, "")
        assert out.startswith("delta: [1, -1]  a: [1, 1]  -> MISMATCH\n")
        assert out.endswith("\nerror: InternalInconsistency: planted\n")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (EXIT_MISMATCH, "")
        assert json.loads(out)["error"] == "InternalInconsistency: planted"

    def test_internal_inconsistency(self, capsys, monkeypatch, tmp_path):
        def fault(query):
            raise InternalInconsistency("planted")

        monkeypatch.setattr(cli, "coefficient_split", fault)
        target = tmp_path / "out"
        for extra in ((), ("--out", str(target))):
            code, out, err = run(capsys, "coeff", "--delta", "1,-1", *extra)
            assert (code, out) == (EXIT_INCONSISTENT, "")
            assert err == "internal inconsistency: planted\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # each rule judged once: by argparse's type= parser or by the library
            "coeff --delta=1,-1 --shift 0,0,0",
            "coeff --delta=x",
            "coeff --delta=1,-1,0 --shift 0,1",
            "best-shift --delta=1,0",
            "constant-term --n 0",
            "constant-term --n -2",
            "verify --delta=1,-1 --a 1,x",
            "verify --delta=1,-1 --a 1,1 --shift 0",
            "sweep --n 2,x",
            "article --delta=1,-1 --shift 0,0,0",
        ],
    )
    def test_malformed_input_is_one_usage_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1, err

    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(engine, "combine_sum", exhausted)
        target = tmp_path / "out"
        for extra in ((), ("--out", str(target))):
            code, out, err = run(capsys, "coeff", "--delta", "1,-1", *extra)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == "usage error: ran out of memory; try a smaller query\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--n", "5"),
            ("sweep", "--n", "0"),
            ("sweep", "--n", "2", "--a-max", "0"),
            ("sweep", "--n", "2", "--delta-budget", "-1"),
            ("sweep", "--n", "2", "--jobs", "0"),
            ("sweep", "--n", "2", "--jobs", "-3"),
            ("sweep", "--n", "2", "--jobs", "2"),
            # text only: LaTeX would print the same bytes as text
            ("best-shift", "--delta", "1,-1", "--format", "latex"),
            ("verify", "--delta", "1,-1", "--a", "2,1", "--format", "latex"),
            ("sweep", "--n", "2", "--a-max", "1", "--delta-budget", "2",
             "--format", "latex"),
            ("coeff", "--delta", "1,-1", "--radius", "0"),
            ("coeff", "--delta", "1,-1", "--radius", "0", "--shift", "zero"),
            ("best-shift", "--delta", "1,-1", "--radius", "0"),
            ("article", "--delta", "1,-1", "--radius", "0"),
            ("article", "--delta", "1,-1", "--radius", "0", "--shift", "zero"),
            # exponents of R leave the packed range [-8192, 8192)
            ("coeff", "--delta=500,-500"),
            ("coeff", "--delta=20000,-20000"),
            ("verify", "--delta", "9000,-9000", "--a", "1,1"),
            # the oracle's predicted packed product passes MAX_EXPANSION_BYTES
            ("verify", "--delta", "1,-1", "--a", "200,200"),
        ],
    )
    def test_out_of_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: ")
        assert "Traceback" not in err


def test_import_loads_no_process_pool():
    # the sweep is one serial loop; no CLI call pays to load a worker pool
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import qdyson.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


class TestCoeffOutput:
    def test_unbalanced_note(self, capsys):
        code, out, _ = run(capsys, "coeff", "--delta", "1,1")
        assert code == EXIT_OK
        assert "coefficient is 0" in out
        assert "R = 0" in out

    def test_unbalanced_reports_the_explicit_shift(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "--delta=1,0", "--shift=0,3", "--format", "json"
        )
        assert (code, out) == (
            EXIT_OK,
            '{"sign":1,"unit":{"q":0,"z":[0,0]},"numer":[],"denom":[],'
            '"meta":{"delta":[1,0],"shift":[0,3],"points":0}}\n',
        )

    def test_closed_form_text(self, capsys):
        _, out, _ = run(capsys, "coeff", "--delta", "1,-1", "--shift", "zero")
        # canonical sign convention: positive graded-lex leading coefficient
        assert "R = (-1 + z1) / ((1 - q*z2))" in out

    def test_split_lists_terms(self, capsys):
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--shift", "zero", "--split"
        )
        assert "term 1:" in out and "term 2:" in out
        assert "total terms: 2" in out

    def test_split_bytes_without_combine(self, capsys, monkeypatch):
        def no_combine(*args):
            raise AssertionError("--split printed no combined R")

        monkeypatch.setattr(engine, "combine_sum", no_combine)
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--shift", "zero", "--split"
        )
        assert out == (
            "delta: [1, -1, 0]\nshift: [0, 0, 0]\n"
            "term 1: pi=[1, 2, 3] m=[0, 0, 0] R_k = z1 * (1 - z3) / ((1 - q*z2*z3))\n"
            "term 2: pi=[2, 3, 1] m=[0, 0, 0] R_k = -(1 - z1*z3) / ((1 - q*z2*z3))\n"
            "total terms: 2\n"
        )
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--shift", "zero", "--split",
            "--format", "json",
        )
        assert out == (
            '{"terms":[{"point":{"pi":[1,2,3],"m":[0,0,0],"alpha":['
            '{"c0":0,"a":[0,0,0]},{"c0":0,"a":[1,0,0]},{"c0":0,"a":[1,1,0]}]},'
            '"summand":{"sign":1,"unit":{"q":0,"z":[1,0,0]},"numer":['
            '{"q":0,"z":[0,0,1],"mult":1}],"denom":['
            '{"q":1,"z":[0,1,1],"mult":1}]}},{"point":{"pi":[2,3,1],"m":[0,0,0],'
            '"alpha":[{"c0":1,"a":[0,1,1]},{"c0":0,"a":[0,0,0]},{"c0":0,"a":[0,1,0]}]},'
            '"summand":{"sign":-1,"unit":{"q":0,"z":[0,0,0]},"numer":['
            '{"q":0,"z":[1,0,1],"mult":1}],"denom":['
            '{"q":1,"z":[0,1,1],"mult":1}]}}],'
            '"meta":{"delta":[1,-1,0],"shift":[0,0,0],"points":2}}\n'
        )

    def test_latex_format(self, capsys):
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1", "--shift", "zero",
            "--format", "latex",
        )
        assert "\\frac" in out and "z_{2}" in out

    def test_cross_check_shifts(self, capsys):
        code, _, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--cross-check-shifts"
        )
        assert code == EXIT_OK

    def test_explicit_shift_vector(self, capsys):
        code, out, _ = run(capsys, "coeff", "--delta", "1,-1", "--shift", "0,1")
        assert code == EXIT_OK
        assert "shift: [0, 1]" in out

    def test_exact_best_shift_at_n6(self, capsys):
        code, out, _ = run(capsys, "coeff", "--delta", "0,-2,0,0,0,2")
        assert code == EXIT_OK
        assert out.splitlines()[1:3] == [
            "shift: [0, 0, -1, -1, -1, -2]",
            "points: 10",
        ]


class TestNegativeVectors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("coeff", "--delta", "-2,1,1", "--shift", "zero"),
            ("coeff", "--delta", "-1,0,1", "--shift", "-1,0,1", "--format", "json"),
            ("best-shift", "--delta", "-1,1"),
            ("verify", "--delta", "-1,1", "--a", "1,2"),
            ("verify", "--delta", "1,-1", "--a", "-1,2"),
            ("article", "--delta", "-1,1"),
        ],
    )
    def test_leading_minus_spellings_agree(self, capsys, argv):
        joined = []
        for i, arg in enumerate(argv):
            if i > 0 and argv[i - 1] in ("--delta", "--shift", "--a"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *joined)
        assert "expected one argument" not in err


class TestJson:
    def test_coeff_json_schema(self, capsys):
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1", "--shift", "zero",
            "--format", "json",
        )
        obj = json.loads(out)
        assert set(obj) == {"sign", "unit", "numer", "denom", "meta"}
        assert obj["meta"] == {"delta": [1, -1], "shift": [0, 0], "points": 1}

    def test_formula_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "coeff", "--delta", "2,-2", "--format", "json"
        )
        obj = json.loads(out)
        rational = formula_from_json(obj)
        again = dumps_canonical(formula_json(rational, obj["meta"]))
        assert again == out  # byte-identical re-serialization

    def test_round_trip_preserves_value(self):
        r = coefficient_combined(CoefficientQuery(delta=(1, -1, 0))).rational
        assert formula_from_json(formula_json(r)) == r

    @pytest.mark.parametrize("shift,count,negative", [("zero", 697, 590), ("best", 159, 41)])
    def test_split_round_trip(self, capsys, shift, count, negative):
        # every n = 4 delta with sum |delta_i| <= 4: the JSON summands parse
        # back to the engine's exactly, and each text row is the summand's str
        summands = []
        for delta in zero_sum_deltas(4, 4):
            argv = ("coeff", f"--delta={','.join(map(str, delta))}", "--shift", shift)
            terms = [s for _, s in coefficient_split(CoefficientQuery(delta, shift)).terms]
            code, out, _ = run(capsys, *argv, "--split", "--format", "json")
            assert (code, summands_from_json(out)) == (EXIT_OK, terms), delta
            _, out, _ = run(capsys, *argv, "--split")
            rows = [line.split(" R_k = ", 1)[1] for line in out.splitlines()[2:-1]]
            assert rows == [str(s) for s in terms], delta
            summands += terms
        # summands with a numerator atom of negative q-exponent, as 1 - q^-1*z2
        low = sum(any(atom.constant < 0 for atom, _ in s.numer) for s in summands)
        assert (len(summands), low) == (count, negative)

    def test_verify_json(self, capsys):
        _, out, _ = run(
            capsys, "verify", "--delta", "1,-1", "--a", "2,2",
            "--format", "json",
        )
        obj = json.loads(out)
        assert obj["match"] is True
        assert obj["delta"] == [1, -1] and obj["a"] == [2, 2]

    def test_best_shift_json(self, capsys):
        _, out, _ = run(
            capsys, "best-shift", "--delta", "0,0", "--format", "json"
        )
        assert json.loads(out) == {"delta": [0, 0], "shift": [0, 0], "size": 1}


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n", "2", "--a-max", "1", "--delta-budget", "2"
        )
        assert code == EXIT_OK
        assert "failures: 0" in out

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n", "2", "--a-max", "1", "--delta-budget", "1",
            "--format", "json",
        )
        obj = json.loads(out)
        assert code == EXIT_OK
        assert obj["failures"] == 0
        assert obj["total"] == len(obj["reports"]) > 0

    def test_desk_scale_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "5")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_delta_budget_past_desk_scale_fails_fast(self, capsys):
        SweepConfig(n_range=(4,), a_max=3, delta_budget=6)  # the largest allowed
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--n", "4", "--delta-budget", "7")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: sweep bounds exceed desk scale")

    def test_engine_error_fails_the_sweep(self, capsys, monkeypatch):
        plant_engine_fault(monkeypatch, (1, -1), "zero")
        code, out, err = run(
            capsys, "sweep", "--n", "2", "--a-max", "1", "--delta-budget", "2"
        )
        assert (code, err) == (EXIT_MISMATCH, "")
        assert "FAIL delta=[1, -1] a=[1, 1] shift=zero" in out.splitlines()
        assert out.endswith("\ntotal: 6  failures: 1\n")

    def test_repeated_n_runs_once(self, capsys):
        totals = []
        for n_arg in ("2", "2,2"):
            code, out, _ = run(
                capsys, "sweep", "--n", n_arg, "--a-max", "1", "--delta-budget", "0",
                "--format", "json",
            )
            assert code == EXIT_OK
            totals.append(json.loads(out)["total"])
        assert totals[0] == totals[1] > 0


class TestArticle:
    def test_contains_all_sections(self, capsys):
        for delta, variables in (("1,-1", "in 2 variables"), ("0", "in 1 variable equals")):
            code, out, _ = run(capsys, "article", "--delta", delta)
            assert code == EXIT_OK
            assert variables in out
            for heading in (
                "Theorem.",
                "Evaluation set",
                "Per-point rational summands:",
                "Verification appendix:",
            ):
                assert heading in out
            assert "MISMATCH" not in out

    def test_unbalanced_rejected(self, capsys):
        code, _, _ = run(capsys, "article", "--delta", "1,1")
        assert code == EXIT_USAGE

    def test_json_format_rejected(self, capsys):
        code, out, err = run(capsys, "article", "--delta", "0,0", "--format", "json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: ")


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "coeff", "--delta", "1,-1", "--format", "json",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        obj = json.loads(target.read_text())
        assert obj["denom"] and obj["numer"]

    @pytest.mark.parametrize("command", [
        ("coeff", "--delta", "1,-1,0", "--cross-check-shifts"),
        ("coeff", "--delta", "1,-1,0", "--split", "--format", "json"),
        ("constant-term", "--n", "3", "--format", "latex"),
        ("best-shift", "--delta", "2,-2,0"),
        ("verify", "--delta", "1,-1", "--a", "2,1"),
        ("sweep", "--n", "2", "--a-max", "2", "--delta-budget", "2"),
        ("article", "--delta", "1,-1,0"),
    ])
    def test_out_gets_the_stdout_bytes(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *command)
        target = tmp_path / "out"
        assert run(capsys, *command, "--out", str(target)) == (code, "", err)
        assert (code, target.read_bytes()) == (EXIT_OK, out.encode())

    def test_early_exits_write_their_partial_body(self, capsys, tmp_path, monkeypatch):
        real = cli.verify_query
        monkeypatch.setattr(cli, "equivalent", lambda r1, r2: False)
        monkeypatch.setattr(
            cli, "verify_query", lambda *a, **k: replace(real(*a, **k), match=False)
        )
        target = tmp_path / "out"
        for command, last in (
            (
                ("coeff", "--delta", "1,-1,0", "--cross-check-shifts"),
                "shift cross-check failed under shift [0, 0, 0]\n",
            ),
            (
                ("article", "--delta", "1,-1,0"),
                "\nVerification appendix:\n  a = [1, 1, 1]: coefficient = -1 - q  [MISMATCH]\n",
            ),
        ):
            code, out, err = run(capsys, *command)
            assert run(capsys, *command, "--out", str(target)) == (code, "", err)
            assert (code, target.read_text()) == (EXIT_MISMATCH, out)
            assert out.endswith(last)

    @pytest.mark.parametrize("command", [
        ("coeff", "--delta", "1,-1"),
        ("constant-term", "--n", "2"),
        ("best-shift", "--delta", "1,-1"),
        ("article", "--delta", "1,-1"),
        ("verify", "--delta", "1,-1", "--a", "1,1"),
        ("sweep", "--n", "2", "--a-max", "1", "--delta-budget", "0"),
    ])
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path, command):
        for target, reason in (
            (tmp_path / "missing" / "r.txt", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ):
            code, out, err = run(capsys, *command, "--out", str(target))
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"usage error: cannot write --out {target}: {reason}\n"


# Output bytes of the renderers, pinned on a numerator with many terms, a
# non-trivial unit monomial, negative exponents and a repeated atom.
PINNED_COEFF = [
    (
        ("coeff", "--delta", "1,-1", "--shift", "zero"),
        "delta: [1, -1]\n"
        "shift: [0, 0]\n"
        "points: 1\n"
        "R = (-1 + z1) / ((1 - q*z2))\n"
        "coefficient = R * qMultinomial(a1,a2)\n",
        "delta: [1, -1]\n"
        "shift: [0, 0]\n"
        "points: 1\n"
        "R = \\frac{(-1 + z_{1})}{\\left(1 - q z_{2}\\right)}\n"
        "coefficient = R * \\frac{(q)_{a_{1}+a_{2}}}{(q)_{a_{1}} (q)_{a_{2}}}\n",
    ),
    (
        ("coeff", "--delta", "-2,1,1"),
        "delta: [-2, 1, 1]\n"
        "shift: [0, -2, -2]\n"
        "points: 2\n"
        "R = -q^2 * (-1 + z2 + z3^2 - z2*z3^2 + q*z1*z3 - q*z1*z3^2 - q*z1*z2^2*z3"
        " + q*z1*z2^2*z3^2) / ((1 - q*z1) (1 - q*z1*z3) (1 - q*z1*z2))\n"
        "coefficient = R * qMultinomial(a1,a2,a3)\n",
        "delta: [-2, 1, 1]\n"
        "shift: [0, -2, -2]\n"
        "points: 2\n"
        "R = -\\frac{q^{2} (-1 + z_{2} + z_{3}^{2} - z_{2} z_{3}^{2} + q z_{1} z_{3}"
        " - q z_{1} z_{3}^{2} - q z_{1} z_{2}^{2} z_{3} + q z_{1} z_{2}^{2} z_{3}^{2})}"
        "{\\left(1 - q z_{1}\\right) \\left(1 - q z_{1} z_{3}\\right)"
        " \\left(1 - q z_{1} z_{2}\\right)}\n"
        "coefficient = R * \\frac{(q)_{a_{1}+a_{2}+a_{3}}}{(q)_{a_{1}} (q)_{a_{2}} (q)_{a_{3}}}\n",
    ),
    (
        ("coeff", "--delta", "2,-1,-1"),
        "delta: [2, -1, -1]\n"
        "shift: [0, 1, 0]\n"
        "points: 2\n"
        "R = (1 - z1 - z1*z2 + q*z2 + z1^2*z2 - q*z1*z2 - q*z1*z2*z3 + q*z1^2*z2*z3)"
        " / ((1 - q*z2*z3) (1 - q^2*z2*z3))\n"
        "coefficient = R * qMultinomial(a1,a2,a3)\n",
        "delta: [2, -1, -1]\n"
        "shift: [0, 1, 0]\n"
        "points: 2\n"
        "R = \\frac{(1 - z_{1} - z_{1} z_{2} + q z_{2} + z_{1}^{2} z_{2} - q z_{1} z_{2}"
        " - q z_{1} z_{2} z_{3} + q z_{1}^{2} z_{2} z_{3})}"
        "{\\left(1 - q z_{2} z_{3}\\right) \\left(1 - q^{2} z_{2} z_{3}\\right)}\n"
        "coefficient = R * \\frac{(q)_{a_{1}+a_{2}+a_{3}}}{(q)_{a_{1}} (q)_{a_{2}} (q)_{a_{3}}}\n",
    ),
    (
        ("coeff", "--delta", "0,0", "--shift", "0,2", "--split"),
        "delta: [0, 0]\n"
        "shift: [0, 2]\n"
        "term 1: pi=[1, 2] m=[0, 0] R_k = q*z1^-2 * (1 - q^-1*z1) * (1 - z1) / ((1 - q) (1 - q^2))\n"
        "term 2: pi=[1, 2] m=[0, 1] R_k = -z1^-2 * (1 - z1) * (1 - q*z1*z2) / ((1 - q)^2)\n"
        "term 3: pi=[1, 2] m=[0, 2] R_k = z1^-2 * (1 - q*z1*z2) * (1 - q^2*z1*z2)"
        " / ((1 - q) (1 - q^2))\n"
        "term 4: pi=[1, 2] m=[1, 0] R_k = q*z1^-1 * (1 - z2) * (1 - z1) / ((1 - q)^2)\n"
        "term 5: pi=[1, 2] m=[1, 1] R_k = -q*z1^-1 * (1 - z2) * (1 - q*z1*z2) / ((1 - q)^2)\n"
        "term 6: pi=[1, 2] m=[2, 0] R_k = q^3 * (1 - q^-1*z2) * (1 - z2) / ((1 - q) (1 - q^2))\n"
        "total terms: 6\n",
        "delta: [0, 0]\n"
        "shift: [0, 2]\n"
        "term 1: pi=[1, 2] m=[0, 0] R_k = \\frac{q z_{1}^{-2} \\left(1 - q^{-1} z_{1}\\right)"
        " \\left(1 - z_{1}\\right)}{\\left(1 - q\\right) \\left(1 - q^{2}\\right)}\n"
        "term 2: pi=[1, 2] m=[0, 1] R_k = -\\frac{z_{1}^{-2} \\left(1 - z_{1}\\right)"
        " \\left(1 - q z_{1} z_{2}\\right)}{\\left(1 - q\\right)^{2}}\n"
        "term 3: pi=[1, 2] m=[0, 2] R_k = \\frac{z_{1}^{-2} \\left(1 - q z_{1} z_{2}\\right)"
        " \\left(1 - q^{2} z_{1} z_{2}\\right)}{\\left(1 - q\\right) \\left(1 - q^{2}\\right)}\n"
        "term 4: pi=[1, 2] m=[1, 0] R_k = \\frac{q z_{1}^{-1} \\left(1 - z_{2}\\right)"
        " \\left(1 - z_{1}\\right)}{\\left(1 - q\\right)^{2}}\n"
        "term 5: pi=[1, 2] m=[1, 1] R_k = -\\frac{q z_{1}^{-1} \\left(1 - z_{2}\\right)"
        " \\left(1 - q z_{1} z_{2}\\right)}{\\left(1 - q\\right)^{2}}\n"
        "term 6: pi=[1, 2] m=[2, 0] R_k = \\frac{q^{3} \\left(1 - q^{-1} z_{2}\\right)"
        " \\left(1 - z_{2}\\right)}{\\left(1 - q\\right) \\left(1 - q^{2}\\right)}\n"
        "total terms: 6\n",
    ),
]

PINNED_ARTICLE = (
    "Theorem.\n"
    "  The coefficient of x1^1 x2^-1 x3^0 in the q-Dyson product in 3 variables"
    " equals R * qMultinomial(a1,a2,a3), where\n"
    "  R = (-1 + z1) / ((1 - q*z2*z3))\n"
    "\n"
    "Evaluation set (shift [0, 1, 0]):\n"
    "  point 1: pi=[1, 2, 3] m=[0, 0, 0] alpha=(0, a1, a1 + a2)\n"
    "\n"
    "Per-point rational summands:\n"
    "  R_1 = -(1 - z1) / ((1 - q*z2*z3))\n"
    "\n"
    "Verification appendix:\n"
    "  a = [1, 1, 1]: coefficient = -1 - q  [match]\n"
    "  a = [2, 2, 2]: coefficient = -1 - 2*q - 4*q^2 - 5*q^3 - 6*q^4 - 6*q^5"
    " - 5*q^6 - 4*q^7 - 2*q^8 - q^9  [match]\n"
)


PINNED_IDS = [" ".join(argv) for argv, _, _ in PINNED_COEFF]

PINNED_VERIFY_TEXT = (
    "delta: [1, -1, 0]  a: [2, 1, 2]  -> match\n"
    "engine: (-1 - 2*q - 3*q^2 - 3*q^3 - 2*q^4 + 2*q^6 + 3*q^7 + 3*q^8 + 2*q^9"
    " + q^10) / (1 - q^4)\n"
    "oracle: -1 - 2*q - 3*q^2 - 3*q^3 - 3*q^4 - 2*q^5 - q^6\n"
)

# the JSON line of verify --delta 2,-1,-1,0 --a 3,1,2,2 with "seconds" dropped
PINNED_VERIFY_JSON = (
    '{"delta":[2,-1,-1,0],"a":[3,1,2,2],"shift":"best","match":true,'
    '"engine":{"num":[[0,1],[1,3],[2,8],[3,15],[4,25],[5,35],[6,43],[7,45],'
    "[8,38],[9,20],[10,-9],[11,-45],[12,-83],[13,-114],[14,-132],[15,-130],"
    "[16,-108],[17,-67],[18,-15],[19,40],[20,87],[21,119],[22,131],[23,123],"
    "[24,99],[25,65],[26,29],[27,-3],[28,-26],[29,-39],[30,-42],[31,-38],"
    "[32,-30],[33,-21],[34,-13],[35,-7],[36,-3],[37,-1]],"
    '"den":[[0,1],[4,-1],[6,-1],[7,-1],[10,1],[11,1],[13,1],[17,-1]]},'
    '"oracle":[[0,1],[1,3],[2,8],[3,15],[4,26],[5,38],[6,52],[7,64],[8,75],'
    "[9,81],[10,83],[11,79],[12,71],[13,59],[14,46],[15,33],[16,22],[17,13],"
    '[18,7],[19,3],[20,1]],"error":""}\n'
)

# article and coeff --split --format json for delta (1, 0, -1) under the shift
# (0, -2, 1): 15 points whose alpha_i have negative constants and slack up to 2
DATA = Path(__file__).resolve().parent / "data"
PINNED_SHIFTED = ("--delta=1,0,-1", "--shift", "0,-2,1")

# sweep --n 2,3 --a-max 2 --delta-budget 2 prints 136 "ok" lines and a total
PINNED_SWEEP_SHA256 = "53b223b3bde5586a275b1b50b751e83ae8af553608987e2b4f046867b3e4bcbe"


class TestPinnedBytes:
    @pytest.mark.parametrize("argv,text,latex", PINNED_COEFF, ids=PINNED_IDS)
    def test_coeff(self, capsys, argv, text, latex):
        assert run(capsys, *argv) == (EXIT_OK, text, "")
        assert run(capsys, *argv, "--format", "latex") == (EXIT_OK, latex, "")

    def test_article(self, capsys):
        assert run(capsys, "article", "--delta", "1,-1,0") == (
            EXIT_OK, PINNED_ARTICLE, ""
        )

    def test_article_shifted(self, capsys):
        expected = (DATA / "article_delta_1_0_-1_shift_0_-2_1.txt").read_text()
        assert run(capsys, "article", *PINNED_SHIFTED) == (EXIT_OK, expected, "")

    def test_split_json_shifted(self, capsys):
        expected = (DATA / "split_delta_1_0_-1_shift_0_-2_1.json").read_text()
        assert run(capsys, "coeff", *PINNED_SHIFTED, "--split", "--format", "json") == (
            EXIT_OK, expected, ""
        )

    def test_verify_text(self, capsys):
        assert run(capsys, "verify", "--delta", "1,-1,0", "--a", "2,1,2") == (
            EXIT_OK, PINNED_VERIFY_TEXT, ""
        )

    def test_verify_json(self, capsys):
        code, out, err = run(
            capsys, "verify", "--delta", "2,-1,-1,0", "--a", "3,1,2,2",
            "--format", "json",
        )
        assert (code, err) == (EXIT_OK, "")
        assert re.sub(r'"seconds":[^,]*,', "", out) == PINNED_VERIFY_JSON

    def test_sweep_text(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--n", "2,3", "--a-max", "2", "--delta-budget", "2"
        )
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("ok  delta=[-1, 1] a=[1, 1] shift=best\n")
        assert out.endswith("\ntotal: 136  failures: 0\n")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_SHA256

    @pytest.mark.parametrize("argv,text,latex", PINNED_COEFF, ids=PINNED_IDS)
    def test_str_is_text_form(self, argv, text, latex):
        args = build_parser().parse_args(argv)
        query = CoefficientQuery(delta=args.delta, shift=args.shift)
        if args.split:  # Summand.render, nothing expanded
            rationals = [s for _, s in coefficient_split(query).terms]
            marker = " R_k = "
        else:
            rationals = [coefficient_combined(query).rational]
            marker = "R = "
        for fmt, expected in (("text", text), ("latex", latex)):
            shown = [
                line.split(marker, 1)[1]
                for line in expected.splitlines()
                if marker in line
            ]
            assert [r.render(latex=fmt == "latex") for r in rationals] == shown
            if fmt == "text":
                assert [str(r) for r in rationals] == shown


class TestRendering:
    def test_one(self):
        from qdyson.exactalg import RationalQZ

        assert RationalQZ.one(2).render() == "1"
        assert RationalQZ.zero(2).render() == "0"


def spy(monkeypatch, name):
    """Record the result of every call of name, through each module that
    binds it."""
    results = []
    for module in (cli, engine):
        real = getattr(module, name, None)
        if real is None:
            continue

        def wrapper(*args, _real=real, **kwargs):
            results.append(_real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, name, wrapper)
    return results


class TestOnePipeline:
    STAGES = ("best_shift", "enumerate_evaluation_set", "coefficient_split", "combine_sum")

    def test_article_runs_each_stage_once(self, capsys, monkeypatch):
        calls = {name: spy(monkeypatch, name) for name in self.STAGES}
        assert run(capsys, "article", "--delta", "1,-1,0")[0] == EXIT_OK
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(
            self.STAGES, 1
        )

    def test_cross_check_splits_each_shift_once(self, capsys, monkeypatch):
        best = spy(monkeypatch, "best_shift")
        splits = spy(monkeypatch, "coefficient_split")
        code, _, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--cross-check-shifts"
        )
        assert code == EXIT_OK
        assert len(best) == 1
        assert [s.shift_used for s in splits] == [(0, 1, 0), (0, 0, 0), (0, 1, 1)]

    def test_cross_check_skips_a_constant_offset_of_the_own_shift(
        self, capsys, monkeypatch
    ):
        splits = spy(monkeypatch, "coefficient_split")
        code, _, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--shift", "1,1,1",
            "--cross-check-shifts",
        )
        assert code == EXIT_OK
        assert [s.shift_used for s in splits] == [(1, 1, 1), (0, 1, 0), (0, 1, 1)]


class TestParserReuse:
    def test_two_commands_build_the_parser_once(self, capsys):
        build_parser.cache_clear()
        first = run(capsys, "best-shift", "--delta", "1,-1", "--format", "json")
        second = run(capsys, "best-shift", "--delta", "2,-2")
        assert build_parser.cache_info().misses == 1
        assert (first[0], second[0]) == (EXIT_OK, EXIT_OK)
        # the first call's options do not carry over into the second
        json.loads(first[1])
        assert not second[1].lstrip().startswith("{")
