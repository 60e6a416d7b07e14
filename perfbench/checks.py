"""Independent checks of the artifacts that treeperc CLI commands print.

Each check takes the command's stdout text and returns ``None`` when the
artifact is correct, or a one-line reason when it is not.  A check recomputes
the artifact's content by a route other than the one the command used: a
closed form, a plain integer recursion, or an exact probability compared
with a bound.  Checks run in the benchmark's own process, never inside a
timed region.

Exact artifacts can hold integers of more than 4,300 decimal digits, so the
benchmark process lifts Python's int/str conversion limit before it parses
them.  The commands under test run with the limit as their environment sets
it; see ``run.py``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from math import comb

from treeperc.asymptotics import asymptotic_betti_k2, mandelbrot_poly
from treeperc.percolation import closed_form_path_bound, failure_exact, percolation_exact


def _csv_rows(text: str) -> tuple[str, list[list[str]]]:
    """Header and rows of the first CSV block (betti prints a layout after it)."""
    block = text.split("\n\n", 1)[0]
    lines = block.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _betti_entries(text: str) -> dict[tuple[int, int], int]:
    header, rows = _csv_rows(text)
    if header != "i,j,beta":
        raise ValueError(f"unexpected header {header!r}")
    return {(int(i), int(j)): int(beta) for i, j, beta in rows}


def cut_betti_k2(text: str, n: int) -> str | None:
    """beta_{i,j} = [q^(j-i+1)] z_{n+1} * C(j-i-1, i-1) for every entry,
    and no nonzero entry of that formula is missing."""
    entries = _betti_entries(text)
    if entries.pop((0, 0), None) != 1:
        return "beta_{0,0} is not 1"
    z = mandelbrot_poly(n + 1).coefficients
    for (i, j), beta in entries.items():
        r = j - i
        expected = z[r + 1] * comb(r - 1, i - 1) if 1 <= i <= r < len(z) - 1 else 0
        if beta != expected:
            return f"beta_{{{i},{j}}} = {beta}, Mandelbrot formula gives {expected}"
    expected_count = sum(r for r in range(1, len(z) - 1) if z[r + 1])
    if len(entries) != expected_count:
        return f"{len(entries)} entries, Mandelbrot formula has {expected_count}"
    return None


def _numerator_x1_at(terms: list[tuple[int, int]], at: Fraction) -> Fraction:
    """Sum of c * at^t over (t, c), exactly, with one common denominator."""
    top = max(t for t, _ in terms)
    a, b = at.numerator, at.denominator
    total = sum(c * a ** t * b ** (top - t) for t, c in terms)
    return Fraction(total, b ** top)


def path_betti(text: str, k: int, n: int, p: Fraction) -> str | None:
    """Totals are C(k^n, i), and the x = 1 numerator at p is the exact
    percolation probability."""
    entries = _betti_entries(text)
    size = k ** n
    totals = [0] * (size + 1)
    for (i, _), beta in entries.items():
        if not 0 <= i <= size:
            return f"column {i} outside 0..{size}"
        totals[i] += beta
    for i, total in enumerate(totals):
        if total != comb(size, i):
            return f"total of column {i} is {total}, expected C({size}, {i})"
    terms = [(j, beta if i % 2 else -beta) for (i, j), beta in entries.items() if i]
    got = _numerator_x1_at(terms, p)
    if got != percolation_exact(k, n, p):
        return f"x=1 numerator at p={p} differs from percolation_exact"
    return None


def cut_hilbert(text: str, k: int, n: int, q: Fraction) -> str | None:
    """The x = 1 numerator at q is the exact failure probability."""
    obj = json.loads(text)
    if (obj["ideal"], obj["k"], obj["n"]) != ("cut", k, n):
        return f"header names {obj['ideal']} k={obj['k']} n={obj['n']}"
    terms = [(int(e["t"]), int(e["c"])) for e in obj["terms"]]
    if _numerator_x1_at(terms, q) != failure_exact(k, n, q):
        return f"x=1 numerator at q={q} differs from failure_exact"
    return None


def bound(text: str, ideal: str, k: int, n: int, m: int, at: Fraction) -> str | None:
    """The value lies on the side its kind names; path m = 3 also equals
    the closed form."""
    obj = json.loads(text)
    value = Fraction(obj["exact"])
    if Fraction(obj["at"]) != at or (obj["k"], obj["n"], obj["m"]) != (k, n, m):
        return f"echoed inputs differ: at={obj['at']} k={obj['k']} n={obj['n']} m={obj['m']}"
    kind = f"{ideal}_{'upper' if m % 2 else 'lower'}"
    if obj["kind"] != kind:
        return f"kind {obj['kind']!r}, expected {kind!r}"
    exact = failure_exact(k, n, at) if ideal == "cut" else percolation_exact(k, n, at)
    if (value < exact) if kind.endswith("upper") else (value > exact):
        return f"{kind} bound {float(value)!r} on the wrong side of {float(exact)!r}"
    if ideal == "path" and m == 3 and value != closed_form_path_bound(k, n, 3, at):
        return "path m=3 bound differs from closed_form_path_bound"
    return None


def percolation(text: str, k: int, n: int, p: Fraction) -> str | None:
    """Exact value by the benchmark's own recursion P = 1 - (1 - p P)^k."""
    obj = json.loads(text)
    prob = Fraction(1)
    for _ in range(n):
        prob = 1 - (1 - p * prob) ** k
    if Fraction(obj["exact"]) != prob:
        return f"exact value at p={p} differs from the recursion"
    return None


def curve(text: str, rows: int) -> str | None:
    """Every row satisfies lower <= exact <= upper."""
    header, body = _csv_rows(text)
    if header != "p,exact,lower,upper,k,n,m_lower,m_upper":
        return f"unexpected header {header!r}"
    if len(body) != rows:
        return f"{len(body)} rows, expected {rows}"
    for row in body:
        exact, lower, upper = float(row[1]), float(row[2]), float(row[3])
        if not lower <= exact <= upper:
            return f"row p={row[0]}: {lower} <= {exact} <= {upper} fails"
    return None


def critical(text: str, k: int, q: Fraction) -> str | None:
    """q* from its formula, and the sampled z is the smaller root of
    z = (z + q)^k."""
    obj = json.loads(text)
    q_star = (k - 1) / k ** 2 * k ** ((k - 2) / (k - 1))
    if obj["p_c"] != f"1/{k}" or not math.isclose(obj["q_star"], q_star, rel_tol=1e-12):
        return f"critical values p_c={obj['p_c']} q*={obj['q_star']}"
    (sample,) = obj["fixed_point_samples"]
    z, qf = sample["z"], float(q)
    turn = k ** (-1 / (k - 1)) - qf  # minimum of (z + q)^k - z
    if sample["q"] != qf or not 0 <= z <= turn or abs((z + qf) ** k - z) > 1e-9:
        return f"z={z} is not the smaller root of z = (z + {qf})^{k}"
    return None


def mandelbrot(text: str, n: int) -> str | None:
    """The coefficients sum to z_n(1) from z_{m+1}(1) = z_m(1)^2 + 1."""
    obj = json.loads(text)
    coefficients = obj["coefficients"]
    value = 0
    for _ in range(n):
        value = value * value + 1
    if obj["n"] != n or len(coefficients) != 2 ** (n - 1) + 1:
        return f"n={obj['n']} with {len(coefficients)} coefficients"
    if sum(coefficients) != value:
        return f"coefficient sum differs from z_{n}(1)"
    return None


def asymptotic(text: str, m: int) -> str | None:
    """Every entry equals asymptotic_betti_k2, and all m(m+1)/2 are present."""
    header, body = _csv_rows(text)
    if header != "i,j,beta,n":
        return f"unexpected header {header!r}"
    if len(body) != m * (m + 1) // 2:
        return f"{len(body)} entries, expected {m * (m + 1) // 2}"
    for i, j, beta, depth in body:
        if depth != "inf" or int(beta) != asymptotic_betti_k2(int(i), int(j)):
            return f"entry ({i}, {j}) = {beta} differs from the limit formula"
    return None


_VERIFY_SUMMARY = re.compile(r"(\d+) passed, (\d+) failed, (\d+) flagged")


def verify(text: str, fmt: str) -> str | None:
    """Zero failed checks (the exit code is checked with every command)."""
    if fmt == "json":
        obj = json.loads(text)
        failed, ok = obj["counts"]["fail"], obj["ok"]
    else:
        match = _VERIFY_SUMMARY.search(text.rstrip().rsplit("\n", 1)[-1])
        if match is None:
            return "no summary line"
        failed = int(match.group(2))
        ok = failed == 0
    if failed or not ok:
        return f"{failed} verify checks failed"
    return None
