"""The benchmark's artifact checkers accept the CLI's artifacts.

``perfbench/checks.py`` recomputes each benchmark artifact by an independent
route.  This test loads that file as it is and runs small versions of the
commands whose artifacts it checks, so a change to their output fails here
rather than as a wrong-output verdict in a benchmark run.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
from fractions import Fraction
from pathlib import Path

import pytest

from treeperc.cli import EXIT_OK, main

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("command, check, params", [
    ("betti --ideal cut --k 2 --n 5", "cut_betti_k2", {"n": 5}),
    ("betti --ideal path --k 2 --n 4", "path_betti", {"k": 2, "n": 4, "p": Fraction(1, 3)}),
    ("asymptotic --m 12", "asymptotic", {"m": 12}),
    ("mandelbrot --n 8", "mandelbrot", {"n": 8}),
])
def test_checker_accepts_the_artifact(command, check, params):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == EXIT_OK
    assert getattr(load_checks(), check)(out.getvalue(), **params) is None
