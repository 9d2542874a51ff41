"""CLI behaviour: exit codes, output formats, and JSON round-trips."""

import json

import pytest

from qdyson import cli
from qdyson.cli import (
    EXIT_INCONSISTENT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    dumps_canonical,
    formula_from_json,
    formula_json,
    render_rational,
    run_command,
)
from qdyson.engine import CoefficientQuery, coefficient_combined, equivalent


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestCoeffOutput:
    def test_unbalanced_note(self, capsys):
        code, out, _ = run(capsys, "coeff", "--delta", "1,1")
        assert code == EXIT_OK
        assert "coefficient is 0" in out
        assert "R = 0" in out

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

        monkeypatch.setattr(cli, "combine_sum", no_combine)
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--shift", "zero", "--split"
        )
        assert out == (
            "delta: [1, -1, 0]\nshift: [0, 0, 0]\n"
            "term 1: pi=[1, 2, 3] m=[0, 0, 0] R_k = -z1 * (-1 + z3) / ((1 - q*z2*z3))\n"
            "term 2: pi=[2, 3, 1] m=[0, 0, 0] R_k = (-1 + z1*z3) / ((1 - q*z2*z3))\n"
            "total terms: 2\n"
        )
        _, out, _ = run(
            capsys, "coeff", "--delta", "1,-1,0", "--shift", "zero", "--split",
            "--format", "json",
        )
        assert out == (
            '{"terms":[{"point":{"pi":[1,2,3],"m":[0,0,0],"alpha":['
            '{"c0":0,"a":[0,0,0]},{"c0":0,"a":[1,0,0]},{"c0":0,"a":[1,1,0]}]},'
            '"formula":{"sign":-1,"unit":{"q":0,"z":[1,0,0]},"numer":['
            '{"q":0,"z":[0,0,0],"c":-1},{"q":0,"z":[0,0,1],"c":1}],"denom":['
            '{"q":1,"z":[0,1,1],"mult":1}]}},{"point":{"pi":[2,3,1],"m":[0,0,0],'
            '"alpha":[{"c0":1,"a":[0,1,1]},{"c0":0,"a":[0,0,0]},{"c0":0,"a":[0,1,0]}]},'
            '"formula":{"sign":1,"unit":{"q":0,"z":[0,0,0]},"numer":['
            '{"q":0,"z":[0,0,0],"c":-1},{"q":0,"z":[1,0,1],"c":1}],"denom":['
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
        with pytest.raises(ValueError):
            run(capsys, "sweep", "--n", "5")


class TestArticle:
    def test_contains_all_sections(self, capsys):
        code, out, _ = run(capsys, "article", "--delta", "1,-1")
        assert code == EXIT_OK
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


class TestRendering:
    def test_one(self):
        from qdyson.exactalg import RationalQZ

        assert render_rational(RationalQZ.one(2)) == "1"
        assert render_rational(RationalQZ.zero(2)) == "0"
