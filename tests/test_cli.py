"""Command-line interface: subcommands, formats, exit codes, determinism."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import treeperc.verify as verify
from treeperc import asymptotics, cli, percolation, resolutions
from treeperc.asymptotics import mandelbrot_poly
from treeperc.bivar import BivarPoly
from treeperc.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    _int_text,
    main,
    parse_rational,
)
from treeperc.percolation import CURVE_CSV_HEADER
from treeperc.resolutions import BettiTable, betti_table, cut_gf


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@contextmanager
def unlimited_int_str():
    """Lift Python's int/str digit limit for the reference side of a test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestParseRational:
    def test_fraction_forms(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("3") == Fraction(3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")


class TestBetti:
    def test_csv_with_layout(self, capsys):
        code, out = run(capsys, "betti", "--ideal", "cut", "--k", "2", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "i,j,beta"
        assert "j-i \\ i" in out  # human-readable layout follows the artifact

    def test_json_roundtrip(self, capsys):
        code, out = run(capsys, "betti", "--ideal", "cut", "--k", "2", "--n", "3",
                        "--format", "json")
        assert code == EXIT_OK
        payload = out[: out.index("\n\n")] if "\n\n" in out else out
        table = BettiTable({(e["i"], e["j"]): int(e["beta"]) for e in json.loads(payload)})
        assert table == betti_table(cut_gf(2, 3))

    def test_out_file_gets_artifact_only(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run(capsys, "betti", "--ideal", "path", "--k", "2", "--n", "2",
                        "--out", str(target))
        assert code == EXIT_OK
        assert target.read_text().splitlines()[0] == "i,j,beta"
        assert "total" in out  # stdout keeps the layout for inspection

    def test_budget_exit_code(self, capsys, budget):
        with budget(max_terms=10):
            code, _ = run(capsys, "betti", "--ideal", "cut", "--k", "2", "--n", "6")
        assert code == EXIT_BUDGET
        # The budget is not a command-line option.
        code, _ = run(capsys, "betti", "--ideal", "cut", "--k", "2", "--n", "6",
                      "--budget-terms", "10")
        assert code == EXIT_USAGE

    def test_missing_ideal_is_usage_error(self, capsys):
        assert main(["betti", "--k", "2", "--n", "2"]) == EXIT_USAGE
        capsys.readouterr()


class TestHilbert:
    def test_json_payload(self, capsys):
        code, out = run(capsys, "hilbert", "--ideal", "cut", "--k", "2", "--n", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert "convention" in obj
        terms = {(t["x"], t["t"]): int(t["c"]) for t in obj["terms"]}
        assert terms[(1, 2)] == 1 and terms[(2, 4)] == -2 and terms[(3, 6)] == 1


class TestPercolation:
    def test_exact_rational(self, capsys):
        code, out = run(capsys, "percolation", "--k", "2", "--n", "2", "--p", "1/2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["exact"] == "39/64"
        assert obj["float"] == pytest.approx(39 / 64)
        assert obj["side"] == "percolation"

    def test_failure_side(self, capsys):
        code, out = run(capsys, "percolation", "--k", "2", "--n", "2", "--q", "1/2")
        obj = json.loads(out)
        assert code == EXIT_OK
        assert obj["exact"] == "25/64"
        assert obj["side"] == "failure"

    def test_infinite_depth(self, capsys):
        code, out = run(capsys, "percolation", "--k", "2", "--n", "inf", "--p", "3/4")
        obj = json.loads(out)
        assert code == EXIT_OK
        assert obj["exact"] is None
        assert obj["float"] == pytest.approx(8 / 9, abs=1e-10)

    def test_depth_fourteen_prints_every_digit(self, capsys):
        # Numerator and denominator have ~51,000 digits each, far above
        # Python's 4,300-digit int/str limit, which stays in force here.
        p = Fraction(29, 36)
        code, out = run(capsys, "percolation", "--k", "2", "--n", "14", "--p", "29/36")
        assert code == EXIT_OK
        expected = Fraction(1)
        for _ in range(14):
            expected = 1 - (1 - p * expected) ** 2
        with unlimited_int_str():
            assert Fraction(json.loads(out)["exact"]) == expected

    def test_oversized_exact_value_refused_before_the_recursion(self, capsys, monkeypatch,
                                                                  budget):
        # T(2, 3) has 14 edges: p = 1/5 predicts 14 * 3 = 42 denominator bits,
        # p = 1/3 predicts 14 * 2 = 28.  Every product with p is recorded.
        products = []

        class Watched(Fraction):
            def __mul__(self, other):
                products.append(other)
                return Fraction.__mul__(self, other)

        monkeypatch.setattr(cli, "parse_rational", Watched)
        with budget(max_coeff_bits=28):
            code = main(["percolation", "--k", "2", "--n", "3", "--p", "1/5"])
            captured = capsys.readouterr()
            assert (code, captured.out, products) == (EXIT_BUDGET, "", [])
            assert ("percolation_exact(2, 3) denominator bits budget exceeded: "
                    "needed 42, limit 28") in captured.err
            code, out = run(capsys, "percolation", "--k", "2", "--n", "3", "--p", "1/3")
        assert code == EXIT_OK and products
        assert json.loads(out)["exact"] == str(percolation.percolation_exact(2, 3, Fraction(1, 3)))

    def test_default_budget_boundary(self, capsys):
        # 2^20 - 2 edges times ceil(log2 36) = 6 bits is past the 4,000,000-bit limit.
        assert main(["percolation", "--k", "2", "--n", "19", "--p", "29/36"]) == EXIT_BUDGET
        assert "needed 6291444, limit 4000000" in capsys.readouterr().err
        code, out = run(capsys, "percolation", "--k", "2", "--n", "40", "--p", "1")
        assert (code, json.loads(out)["exact"]) == (EXIT_OK, "1")

    def test_out_of_range_probability(self, capsys):
        code, _ = run(capsys, "percolation", "--k", "2", "--n", "2", "--p", "3/2")
        assert code == EXIT_USAGE

    def test_requires_exactly_one_side(self, capsys):
        assert main(["percolation", "--k", "2", "--n", "2"]) == EXIT_USAGE
        assert main(["percolation", "--k", "2", "--n", "2", "--p", "1/2", "--q", "1/2"]) == EXIT_USAGE
        capsys.readouterr()


class TestIntText:
    def test_equals_str_at_every_size(self):
        rng = random.Random(20)
        values = [0, 1, -1, 9, -10, 2 ** 128, 2 ** 129 - 1, -(2 ** 200),
                  10 ** 4299, 10 ** 4300 - 1, 10 ** 4300, -(10 ** 4300) - 7,
                  rng.getrandbits(14_284), -rng.getrandbits(14_290)]
        for size in (1, 64, 127, 129, 1_000, 20_000, 100_000, 200_000):
            values.extend([rng.getrandbits(size), -rng.getrandbits(size)])
        values.extend(rng.getrandbits(rng.randint(1, 200_000)) for _ in range(8))
        texts = [_int_text(v) for v in values]
        with unlimited_int_str():
            assert texts == [str(v) for v in values]


class TestBound:
    def test_path_bound(self, capsys):
        code, out = run(capsys, "bound", "--ideal", "path", "--k", "2", "--n", "2",
                        "--m", "2", "--p", "1/4")
        obj = json.loads(out)
        assert code == EXIT_OK
        assert obj["kind"] == "path_lower"
        assert obj["exact"] == "13/64"

    def test_cut_bound_requires_q(self, capsys):
        code, _ = run(capsys, "bound", "--ideal", "cut", "--k", "2", "--n", "2",
                      "--m", "1", "--p", "1/4")
        assert code == EXIT_USAGE

    def test_cut_bound_value(self, capsys):
        code, out = run(capsys, "bound", "--ideal", "cut", "--k", "2", "--n", "2",
                        "--m", "1", "--q", "1/2")
        obj = json.loads(out)
        assert code == EXIT_OK
        # q^2 (q+1)^2 at 1/2.
        assert obj["exact"] == "9/16"
        assert obj["kind"] == "cut_upper"
        assert obj["clamped_float"] <= 1.0

    def test_oversized_exact_value_refused_up_front(self, capsys, budget):
        # C_{2,3,2} has degree 9 and B_{2,3,2} degree 6; at 1/5 each degree
        # costs ceil(log2 5) = 3 denominator bits: 27 and 18 bits.
        cases = [(("--ideal", "cut", "--q", "1/5"), "cut_bound(2, 3, 2)", 27),
                 (("--ideal", "path", "--p", "1/5"), "path_bound(2, 3, 2)", 18)]
        for side, label, needed in cases:
            argv = ("bound", *side, "--k", "2", "--n", "3", "--m", "2")
            with budget(max_coeff_bits=17):
                code = main(list(argv))
                captured = capsys.readouterr()
                # a float point predicts no denominator and is evaluated
                assert 0 < percolation.cut_bound(2, 3, 2, 0.2).value < 1
            assert (code, captured.out) == (EXIT_BUDGET, "")
            assert (f"{label} denominator bits budget exceeded: "
                    f"needed {needed}, limit 17") in captured.err
            code, out = run(capsys, *argv)
            assert code == EXIT_OK and json.loads(out)["exact"]


class TestCurve:
    def test_preset_deterministic(self, capsys):
        _, first = run(capsys, "curve", "--preset", "figure3", "--samples", "11")
        _, second = run(capsys, "curve", "--preset", "figure3", "--samples", "11")
        assert first == second
        assert first.splitlines()[0] == CURVE_CSV_HEADER

    def test_custom_requires_m_flags(self, capsys):
        code, _ = run(capsys, "curve", "--ideal", "path", "--k", "2", "--n", "3")
        assert code == EXIT_USAGE

    def test_custom_curve(self, capsys):
        code, out = run(capsys, "curve", "--ideal", "path", "--k", "2", "--n", "3",
                        "--m-lower", "4", "--m-upper", "3", "--samples", "5")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6

    def test_clamp(self, capsys):
        code, out = run(capsys, "curve", "--preset", "figure4", "--samples", "6", "--clamp")
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            for field in line.split(",")[1:4]:
                assert 0.0 <= float(field) <= 1.0


class TestCritical:
    def test_binary_values(self, capsys):
        code, out = run(capsys, "critical", "--k", "2")
        obj = json.loads(out)
        assert code == EXIT_OK
        assert obj["p_c"] == "1/2"
        assert obj["q_star"] == pytest.approx(0.25)
        assert obj["q_star_exact"] == "1/4"
        assert obj["fixed_point_samples"]

    def test_explicit_sample_point(self, capsys):
        code, out = run(capsys, "critical", "--k", "2", "--q", "1/5")
        obj = json.loads(out)
        samples = obj["fixed_point_samples"]
        assert len(samples) == 1
        assert samples[0]["z"] == pytest.approx((0.6 - 0.2 ** 0.5) / 2, abs=1e-11)

    def test_no_exact_form_for_k3(self, capsys):
        _, out = run(capsys, "critical", "--k", "3")
        assert json.loads(out)["q_star_exact"] is None


class TestAsymptotic:
    def test_csv(self, capsys):
        code, out = run(capsys, "asymptotic", "--m", "4")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "i,j,beta,n"
        assert "1,2,1,inf" in lines

    def test_json(self, capsys):
        code, out = run(capsys, "asymptotic", "--m", "3", "--format", "json")
        payload = out[: out.index("\n\n")] if "\n\n" in out else out
        rows = json.loads(payload)
        assert code == EXIT_OK
        assert {"i": 1, "j": 2, "beta": "1"} in rows

    def test_large_m_refused_before_any_entry(self, capsys, monkeypatch, budget):
        # --m 5 asks for 15 entries; a 14-term budget refuses it up front.
        calls = []
        entry = asymptotics.catalan
        monkeypatch.setattr(asymptotics, "catalan", lambda *a: calls.append(a) or entry(*a))
        with budget(max_terms=14):
            code = main(["asymptotic", "--m", "5"])
            captured = capsys.readouterr()
            assert (code, captured.out, calls) == (EXIT_BUDGET, "", [])
            assert "asymptotic_table(5) entry count budget exceeded: needed 15, limit 14" \
                in captured.err
            assert main(["asymptotic", "--m", "4"]) == EXIT_OK


class TestMandelbrot:
    def test_fourth_iterate(self, capsys):
        code, out = run(capsys, "mandelbrot", "--n", "4")
        obj = json.loads(out)
        assert code == EXIT_OK
        assert [int(c) for c in obj["coefficients"]] == [0, 1, 1, 2, 5, 6, 6, 4, 1]

    def test_matches_schoolbook_oracle(self, capsys):
        for n in range(10):
            for m in (None, 0, 1, 2, 5, 1000):
                z = mandelbrot_poly(n, max_degree=m)
                expected = json.dumps({"n": n, "coefficients": list(z.coefficients),
                                       "truncated_at": m}, indent=2, sort_keys=True) + "\n"
                argv = ["mandelbrot", "--n", str(n)] + ([] if m is None else ["--m", str(m)])
                assert run(capsys, *argv) == (EXIT_OK, expected), argv

    def test_prints_the_same_bytes_at_the_lowest_digit_limit(self, capsys):
        # z_13 has a 723-digit coefficient, above the lowest limit Python accepts.
        expected = run(capsys, "mandelbrot", "--n", "13")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = run(capsys, "mandelbrot", "--n", "13")
        finally:
            sys.set_int_max_str_digits(saved)
        assert expected[0] == EXIT_OK
        assert got == expected

    def test_negative_truncation_is_usage_error(self, capsys):
        for n in ("0", "3"):
            code, out = run(capsys, "mandelbrot", "--n", n, "--m", "-1")
            assert (code, out) == (EXIT_USAGE, "")

    def test_budget(self, capsys, monkeypatch, budget):
        # The count of W_39 is refused before a single power is taken.
        calls = []
        power = BivarPoly.power
        monkeypatch.setattr(BivarPoly, "power", lambda *a: calls.append(a) or power(*a))
        with budget(max_terms=100):
            code = main(["mandelbrot", "--n", "40"])
        err = capsys.readouterr().err
        assert code == EXIT_BUDGET and calls == []
        assert f"multibrot(2, 39) coefficient count budget exceeded: needed {2 ** 39 - 1}, " \
               "limit 100" in err


class TestVerifyCommand:
    def test_quick_green(self, capsys):
        code, out = run(capsys, "verify", "--scope", "quick")
        assert code == EXIT_OK
        assert "flagged" in out

    def test_json_format(self, capsys):
        code, out = run(capsys, "verify", "--scope", "quick", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["counts"]["fail"] == 0

    def test_failing_battery_sets_exit_code(self, capsys, monkeypatch):
        from treeperc.verify import CheckResult, VerifyReport

        def fake(scope):
            return VerifyReport(scope=scope, checks=(
                CheckResult(name="demo", status="fail", lhs="1", rhs="2", detail="boom"),
            ))

        monkeypatch.setattr(verify, "run_verify", fake)
        code, _ = run(capsys, "verify", "--scope", "quick")
        assert code == EXIT_CHECK_FAILED


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_rational(self, capsys):
        assert main(["percolation", "--k", "2", "--n", "2", "--p", "pi"]) == EXIT_USAGE
        capsys.readouterr()

    def test_invalid_tree_parameters(self, capsys):
        assert main(["betti", "--ideal", "path", "--k", "1", "--n", "2"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("sub", [None, "betti", "hilbert", "percolation", "bound", "curve",
                                     "critical", "asymptotic", "mandelbrot", "verify"])
    def test_help_exits_zero(self, capsys, sub):
        # perfbench times `python -m treeperc.cli --help` as the start-up probe.
        assert main(["--help"] if sub is None else [sub, "--help"]) == EXIT_OK
        assert "usage: treeperc" in capsys.readouterr().out


class TestOutOfMemory:
    def test_memory_error_exits_as_budget_exceeded(self, capsys, monkeypatch):
        def exhausted(gf):
            raise MemoryError

        monkeypatch.setattr(resolutions, "betti_table", exhausted)
        code = main(["betti", "--ideal", "cut", "--k", "2", "--n", "2"])
        out, err = capsys.readouterr()
        assert code == EXIT_BUDGET and out == ""
        assert err == "budget exceeded: out of memory in betti\n"


# Prints the exit code and the treeperc modules loaded after one command.
FOOTPRINT = """
import contextlib, io, sys
from treeperc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("treeperc.")))
"""
NOT_RUN = {"asymptotics", "oracle", "trees", "verify"}
# argv -> (modules it must load, modules it must not load)
FOOTPRINTS = {
    "--help": ({"cli"}, NOT_RUN | {"percolation", "resolutions"}),
    "bound --ideal cut --k 2 --n 3 --m 2 --q 1/5": ({"percolation"}, NOT_RUN),
    "percolation --k 2 --n 3 --p 1/2": ({"percolation"}, NOT_RUN),
    "curve --k 2 --n 2 --m-lower 1 --m-upper 2 --samples 3": ({"percolation"}, NOT_RUN),
    "critical --k 2": ({"percolation"}, NOT_RUN),
    "betti --ideal cut --k 2 --n 2": ({"resolutions"}, NOT_RUN | {"percolation"}),
    "hilbert --ideal path --k 2 --n 2": ({"resolutions"}, NOT_RUN),
    "mandelbrot --n 3": ({"resolutions"}, NOT_RUN),
    "asymptotic --m 3": ({"asymptotics"}, NOT_RUN - {"asymptotics"}),
}


class TestImportFootprint:
    """A launch loads only the modules its subcommand runs."""

    @pytest.mark.parametrize("argv", FOOTPRINTS)
    def test_command_loads_only_what_it_runs(self, argv):
        loads, skips = FOOTPRINTS[argv]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv.split()], env=env,
                              capture_output=True, text=True, check=True)
        code, *names = done.stdout.split()
        loaded = {name.removeprefix("treeperc.") for name in names}
        assert code == "0"
        assert loads <= loaded and not skips & loaded, sorted(loaded)
