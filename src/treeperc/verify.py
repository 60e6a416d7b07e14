"""Self-verification: cross-checks the engine against its independent oracles.

Every check recomputes a fact two ways — recursion vs exhaustive enumeration,
closed form vs truncation, homology vs generating function — and reports
pass/fail with both sides rendered.  One check is expected to come out
"flagged" rather than pass: the two published routes to the depth limit of
the first binary cut bound disagree in the fourth decimal at q = 0.1, a
documented open issue that verification surfaces without failing.

The quick scope is small checks only; the full scope adds the homology
oracle, the exhaustive reliability routes, deep golden tables and the full
bound-sandwich sweep.  From the command line on Python 3.11 with 2 shared
cores the quick scope takes about 0.1-0.2 s and the full scope about
0.3-0.6 s, depending on the machine's load.

A check that runs over many cases names its first failing case in its
detail, and evaluates no case after it; on a passing run every case runs.

Engine entry points are called through their modules (resolutions.path_gf,
not a local alias) so fault injection in tests can redirect them.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import asymptotics, oracle, percolation, resolutions, trees
from .bivar import BivarPoly
from .limits import SCOPES


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "flagged"
    lhs: str
    rhs: str
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    scope: str
    checks: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "flagged": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "scope": self.scope,
            "ok": self.ok,
            "counts": self.counts,
            "checks": [
                {"name": c.name, "status": c.status, "lhs": c.lhs, "rhs": c.rhs, "detail": c.detail}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"[{c.status.upper():7s}] {c.name}: {c.lhs} vs {c.rhs}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        counts = self.counts
        lines.append(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['flagged']} flagged — scope {self.scope}"
        )
        return "\n".join(lines) + "\n"


def _trim(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _eq(name: str, lhs, rhs, detail: str = "") -> CheckResult:
    ok = lhs == rhs
    return CheckResult(name, "pass" if ok else "fail", _trim(lhs), _trim(rhs), detail)


def _close(name: str, lhs: float, rhs: float, tol: float, detail: str = "") -> CheckResult:
    ok = abs(lhs - rhs) <= tol
    return CheckResult(name, "pass" if ok else "fail", _trim(lhs), _trim(rhs),
                       detail or f"tolerance {tol:g}")


def _true(name: str, cond: bool, statement: str, detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if cond else "fail", statement, "True", detail)


def _first_failure(failures: Iterator[str]) -> str:
    """The witness of the first failing case, or "" when every case passes.
    ``failures`` is lazy, so no case after the first failure is evaluated."""
    return next(failures, "")


# -- frozen golden data ---------------------------------------------------------

_GOLDEN_CUT_N2 = {(0, 0): 1, (1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 4): 2, (2, 5): 2, (3, 6): 1}
_GOLDEN_CUT_N3_ROWS = {
    1: (1,), 2: (2, 2), 3: (5, 10, 5), 4: (6, 18, 18, 6),
    5: (6, 24, 36, 24, 6), 6: (4, 20, 40, 40, 20, 4), 7: (1, 6, 15, 20, 15, 6, 1),
}
_GOLDEN_CUT_N3_TOTALS = (1, 25, 80, 114, 90, 41, 10, 1)
_GOLDEN_CUT_N4_TOTALS = (1, 676, 5460, 21113, 51348, 87288, 109314, 103726)
_GOLDEN_CUT_N5_TOTALS = (1, 458329, 8308144, 73630338, 424216050, 1783078865,
                         5818552406, 15319701281)
# The depth-4/5 tables are published only through homological degree 7; each
# offset row below is that printed prefix.
_GOLDEN_CUT_N4_ROWS = {
    1: (1,), 2: (2, 2), 3: (5, 10, 5), 4: (14, 42, 42, 14),
    5: (26, 104, 156, 104, 26), 6: (44, 220, 440, 440, 220, 44),
    7: (69, 414, 1035, 1380, 1035, 414, 69),
    8: (94, 658, 1974, 3290, 3290, 1974, 658),
    9: (114, 912, 3192, 6384, 7980, 6384, 3192),
    10: (116, 1044, 4176, 9744, 14616, 14616, 9744),
    11: (94, 940, 4230, 11280, 19740, 23688, 19740),
    12: (60, 660, 3300, 9900, 19800, 27720, 27720),
    13: (28, 336, 1848, 6160, 13860, 22176, 25872),
    14: (8, 104, 624, 2288, 5720, 10296, 13728),
}
_GOLDEN_CUT_N5_ROWS = {
    1: (1,), 2: (2, 2), 3: (5, 10, 5), 4: (14, 42, 42, 14),
    5: (42, 168, 252, 168, 42), 6: (100, 500, 1000, 1000, 500, 100),
    7: (221, 1326, 3315, 4420, 3315, 1326, 221),
    8: (470, 3290, 9870, 16450, 16450, 9870, 3290),
    9: (958, 7664, 26824, 53648, 67060, 53648, 26824),
    10: (1860, 16740, 66960, 156240, 234360, 234360, 156240),
    11: (3434, 34340, 154530, 412080, 721140, 865368, 721140),
    12: (6036, 66396, 331980, 995940, 1991880, 2788632, 2788632),
    13: (10068, 120816, 664488, 2214960, 4983660, 7973856, 9302832),
    14: (15864, 206232, 1237392, 4537104, 11342760, 20416968, 27222624),
}
_NUMERATOR_N2 = {(1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 4): -2, (2, 5): -2, (3, 6): 1}
_NUMERATOR_N3 = {
    (1, 2): 1, (1, 3): 2, (1, 4): 5, (1, 5): 6, (1, 6): 6, (1, 7): 4, (1, 8): 1,
    (2, 4): -2, (2, 5): -10, (2, 6): -18, (2, 7): -24, (2, 8): -20, (2, 9): -6,
    (3, 6): 5, (3, 7): 18, (3, 8): 36, (3, 9): 40, (3, 10): 15,
    (4, 8): -6, (4, 9): -24, (4, 10): -40, (4, 11): -20,
    (5, 10): 6, (5, 11): 20, (5, 12): 15,
    (6, 12): -4, (6, 13): -6,
    (7, 14): 1,
}
# The (k, n) trees small enough for the exhaustive, Taylor and duality oracles.
_ORACLE_TREES = {"quick": [(2, 2), (3, 1)], "full": [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]}
_MANDELBROT_Z4 = (0, 1, 1, 2, 5, 6, 6, 4, 1)
_CATALAN_COLUMN = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)

_TENSOR_TABLE_I = {(0, 0): 1, (1, 2): 1, (1, 3): 2, (2, 4): 1, (2, 5): 2, (3, 6): 1}
_TENSOR_TABLE_J = {(0, 0): 1, (1, 3): 2, (2, 5): 1}
_TENSOR_SUM_TOTALS = (1, 5, 10, 10, 5, 1)
_TENSOR_PRODUCT_ENTRIES = {
    (0, 0): 1, (1, 5): 2, (1, 6): 4, (2, 7): 3, (2, 8): 6,
    (3, 9): 3, (3, 10): 2, (4, 11): 1,
}


# -- individual checks ----------------------------------------------------------


def _check_golden_tables(scope: str) -> list[CheckResult]:
    out = [_eq("golden_cut_table_n2",
               resolutions.betti_table(resolutions.cut_gf(2, 2)).as_dict(), _GOLDEN_CUT_N2)]
    t3 = resolutions.betti_table(resolutions.cut_gf(2, 3))
    out.append(_eq("golden_cut_totals_n3", t3.totals(), _GOLDEN_CUT_N3_TOTALS))
    rows_ok = all(
        t3.offset_row(r)[: len(row)] == row and not any(t3.offset_row(r)[len(row):])
        for r, row in _GOLDEN_CUT_N3_ROWS.items()
    )
    out.append(_true("golden_cut_rows_n3", rows_ok, "all offset rows match"))
    if scope == "full":
        t4 = resolutions.betti_table(resolutions.cut_gf(2, 4))
        t5 = resolutions.betti_table(resolutions.cut_gf(2, 5))
        out.append(_eq("golden_cut_totals_n4_prefix", t4.totals()[:8], _GOLDEN_CUT_N4_TOTALS))
        out.append(_eq("golden_cut_totals_n5_prefix", t5.totals()[:8], _GOLDEN_CUT_N5_TOTALS))
        for name, table, rows in (("golden_cut_rows_n4", t4, _GOLDEN_CUT_N4_ROWS),
                                  ("golden_cut_rows_n5", t5, _GOLDEN_CUT_N5_ROWS)):
            ok = all(table.offset_row(r, max_i=len(row)) == row for r, row in rows.items())
            out.append(_true(name, ok, "printed row prefixes (i <= 7) match"))
    return out


def _check_numerator_fixtures(scope: str) -> list[CheckResult]:
    out = []
    for n, expected in ((2, _NUMERATOR_N2), (3, _NUMERATOR_N3)):
        h = resolutions.gf_to_numerator(resolutions.cut_gf(2, n))
        got = {(i, j): c for i, j, c in h.terms()}
        out.append(_eq(f"numerator_fixture_n{n}", got, expected))
    return out


def _check_cut_routes(scope: str) -> list[CheckResult]:
    out = []
    for k, depth in ((2, 5), (3, 3), (4, 2)):
        for n in range(1, depth + 1):
            witness = _first_failure(
                f"x_truncation={m}" for m in (None, -1, 0, 1, 2, 3)
                if (resolutions.cut_gf(k, n, x_truncation=m)
                    != oracle.cut_gf_recursive(k, n, x_truncation=m)))
            out.append(_true(f"cut_gf_matches_recursion_k{k}_n{n}", not witness,
                             "Multibrot expansion == bivariate recursion, "
                             "untruncated and truncated at m = -1..3", witness))
    return out


def _check_mandelbrot_routes(scope: str) -> list[CheckResult]:
    cases = ((n, m, resolutions.mandelbrot_iterate(n, max_degree=m),
              asymptotics.mandelbrot_poly(n, max_degree=m).coefficients)
             for n in range(9) for m in (None, 0, 1, 3))
    witness = _first_failure(
        f"n={n} max_degree={m}" for n, m, z, schoolbook in cases
        if z != BivarPoly({(d, 0): c for d, c in enumerate(schoolbook)}))
    return [_true("mandelbrot_matches_multibrot", not witness,
                  "q + multibrot(2, n - 1) == schoolbook z_n, n <= 8, m = None, 0, 1, 3", witness)]


def _check_duality(scope: str) -> list[CheckResult]:
    out = []
    hi = 3
    for k in (2, 3):
        for n in range(1, hi + 1):
            hp = resolutions.gf_to_numerator(resolutions.path_gf(k, n)).eval_x1()
            hc = resolutions.gf_to_numerator(resolutions.cut_gf(k, n)).eval_x1()
            identity = hp == 1 - hc.substitute_one_minus_t()
            out.append(_true(f"duality_identity_k{k}_n{n}", identity,
                             "P(p) = 1 - Pfail(1-p) as polynomials"))
    return out


def _check_path_totals(scope: str) -> list[CheckResult]:
    out = []
    for k in (2, 3):
        for n in (1, 2, 3):
            tb = resolutions.betti_table(resolutions.path_gf(k, n))
            expected = tuple(comb(k ** n, i) for i in range(tb.max_i + 1))
            out.append(_eq(f"path_totals_binomial_k{k}_n{n}", tb.totals(), expected))
            out.append(_eq(f"path_recursive_route_k{k}_n{n}",
                           resolutions.path_betti_recursive(k, n).as_dict(), tb.as_dict()))
    return out


def _check_three_route(scope: str) -> list[CheckResult]:
    ps = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    out = []
    for k, n in _ORACLE_TREES[scope]:
        spec = trees.TreeSpec(k, n)
        poly = resolutions.gf_to_numerator(resolutions.path_gf(k, n)).eval_x1()
        routes = ((p, oracle.reliability_exhaustive(spec, p),
                   percolation.percolation_exact(k, n, p), poly.evaluate(p)) for p in ps)
        witness = _first_failure(f"p={p}: {a} / {b} / {c}"
                                 for p, a, b, c in routes if not (a == b == c))
        out.append(_true(f"three_route_equality_k{k}_n{n}", not witness,
                         "exhaustive == recursion == numerator(x=1)", witness))
    return out


def _check_taylor(scope: str) -> list[CheckResult]:
    out = []
    for k, n in _ORACLE_TREES[scope]:
        spec = trees.TreeSpec(k, n)
        for label, mk, gf in (("path", oracle.path_monomials, resolutions.path_gf),
                              ("cut", oracle.cut_monomials, resolutions.cut_gf)):
            ms = mk(spec)
            if len(ms.generators) > oracle.ORACLE_SUBSET_CAP:
                continue
            lhs = oracle.taylor_numerator(ms).eval_x1()
            rhs = resolutions.gf_to_numerator(gf(k, n)).eval_x1()
            out.append(_true(f"taylor_x1_{label}_k{k}_n{n}", lhs == rhs,
                             "alternating subset sum == numerator at x=1"))
    return out


def _check_alexander_duality(scope: str) -> list[CheckResult]:
    out = []
    for k, n in _ORACLE_TREES[scope]:
        spec = trees.TreeSpec(k, n)
        pm, cm = oracle.path_monomials(spec), oracle.cut_monomials(spec)
        ok = oracle.alexander_dual(pm) == cm and oracle.alexander_dual(cm) == pm
        out.append(_true(f"alexander_duality_k{k}_n{n}", ok,
                         "paths and cuts are mutually dual"))
    dbp, dbc = oracle.double_bridge_path_monomials(), oracle.double_bridge_cut_monomials()
    out.append(_true("alexander_duality_double_bridge",
                     oracle.alexander_dual(dbp) == dbc and oracle.alexander_dual(dbc) == dbp,
                     "double-bridge paths and cuts are mutually dual"))
    p = Fraction(3, 7)
    total = (oracle.union_probability_exhaustive(dbp, p)
             + oracle.union_probability_exhaustive(dbc, 1 - p))
    out.append(_eq("double_bridge_complementarity", total, Fraction(1),
                   "reliability plus failure probability"))
    return out


def _check_m_labeling(scope: str) -> list[CheckResult]:
    cases = ((k, n, q, percolation.cut_bound_m2_recursive(k, n, q),
              percolation.cut_bound(k, n, 1, q).value)
             for k in (2, 3) for n in (1, 2, 3)
             for q in (Fraction(1, 5), Fraction(1, 3), Fraction(3, 4)))
    witness = _first_failure(f"k={k} n={n} q={q}: {a} != {b}"
                             for k, n, q, a, b in cases if a != b)
    return [_true("first_cut_bound_is_x_degree_1_truncation", not witness,
                  "recursive first bound == x-degree-1 truncation", witness)]


def _check_sandwich(scope: str) -> list[CheckResult]:
    if scope == "quick":
        ns, ms, grid = (1, 2), (1, 2, 3), [Fraction(i, 20) for i in range(1, 20)]
    else:
        ns, ms, grid = (1, 2, 3, 4), (1, 2, 3, 4, 5, 6), [Fraction(i, 100) for i in range(1, 100)]
    out = []
    for n in ns:
        exact_p = {p: percolation.percolation_exact(2, n, p) for p in grid}
        exact_q = {q: percolation.failure_exact(2, n, q) for q in grid}
        for m in ms:
            ppoly = percolation.path_bound_poly(2, n, m)
            cpoly = percolation.cut_bound_poly(2, n, m)
            side = "upper" if m % 2 else "lower"
            bounds = ((p, ppoly.evaluate(p), cpoly.evaluate(p)) for p in grid)
            witness = _first_failure(
                f"violated at {p}" for p, bp, bq in bounds
                if not (bp >= exact_p[p] and bq >= exact_q[p] if side == "upper"
                        else bp <= exact_p[p] and bq <= exact_q[p]))
            out.append(_true(f"sandwich_n{n}_m{m}", not witness,
                             f"odd/even truncations bound from the correct side ({side})",
                             witness))
    return out


def _check_critical_values(scope: str) -> list[CheckResult]:
    out = [
        _eq("q_star_exact_k2", percolation.q_star_exact(2), Fraction(1, 4)),
        _close("q_star_float_k2", percolation.q_star(2), 0.25, 1e-12),
        _close("fixed_point_q02", percolation.cut_fixed_point_m2(2, 0.2),
               (0.6 - math.sqrt(0.2)) / 2, 1e-11,
               "smallest root of z = (z + 0.2)^2"),
    ]
    seq = [percolation.cut_bound_m2_recursive(2, n, 0.3) for n in range(1, 26)]
    out.append(_true("divergence_above_q_star", max(seq) > 1e6,
                     "first bound exceeds 1e6 by depth 25 at q = 0.3",
                     f"max over depths = {max(seq):.3g}"))
    conv = percolation.cut_bound_m2_recursive(2, 60, 0.2)
    out.append(_close("convergence_below_q_star", conv,
                      percolation.cut_fixed_point_m2(2, 0.2), 1e-9,
                      "depth-60 recursion vs fixed point at q = 0.2"))
    return out


def _check_percolation_infinite(scope: str) -> list[CheckResult]:
    out = [_close("infinite_tree_k2_p075", percolation.percolation_infinite(2, Fraction(3, 4)),
                  8.0 / 9.0, 1e-10)]
    zeros_ok = all(
        percolation.percolation_infinite(k, Fraction(1, k)) == 0.0
        and percolation.percolation_infinite(k, 1.0 / k) == 0.0
        for k in (2, 3, 4)
    )
    out.append(_true("infinite_tree_subcritical_zero", zeros_ok,
                     "probability is exactly 0 at and below p = 1/k (k = 2, 3, 4)"))
    if scope == "full":
        gaps = ((p, abs(percolation.percolation_exact(2, 30, p)
                        - percolation.percolation_infinite(2, p))) for p in (0.75, 0.9))
        witness = _first_failure(f"p={p}: gap {gap:.3g}" for p, gap in gaps if gap >= 1e-6)
        out.append(_true("deep_recursion_matches_limit", not witness,
                         "depth-30 recursion within 1e-6 of the limit at p = 0.75, 0.9",
                         witness))
    return out


def _check_asymptotics(scope: str) -> list[CheckResult]:
    out = [
        _eq("mandelbrot_z4", asymptotics.mandelbrot_poly(4).coefficients, _MANDELBROT_Z4),
        _eq("catalan_column",
            tuple(asymptotics.asymptotic_betti_k2(1, 1 + r) for r in range(1, 11)),
            _CATALAN_COLUMN),
        _eq("limit_table_spot_i2_j6", asymptotics.asymptotic_betti_k2(2, 6), 42),
    ]
    limit = asymptotics.asymptotic_table(14)
    forms_ok = all(asymptotics.asymptotic_betti_k2(i, i + r) == limit.entry(i, i + r)
                   for r in range(1, 15) for i in range(1, r + 1))
    out.append(_true("limit_formula_forms_agree", forms_ok,
                     "factorial form == catalan-binomial form (14 antidiagonals)"))
    rep = asymptotics.mandelbrot_catalan_limit_check(6)
    out.append(_true("mandelbrot_coefficient_limit",
                     rep.empirical_alignment_holds
                     and all(v != rep.printed_target for _, v in rep.values),
                     f"coefficient of q^6 stabilizes at catalan(5) = {rep.empirical_target}",
                     "the catalan(6) variant sometimes quoted does not stabilize"))
    if scope == "full":
        tables = ((n, resolutions.betti_table(resolutions.cut_gf(2, n))) for n in (2, 3, 4))
        witness = _first_failure(
            f"n={n} i={i} offset={r}" for n, tb in tables
            for i in range(1, tb.max_i + 1) for r in range(1, tb.max_offset() + 1)
            if asymptotics.betti_from_mandelbrot(n, i, r) != tb.entry(i, i + r))
        out.append(_true("betti_from_mandelbrot_matches_tables", not witness,
                         "mandelbrot-side formula reproduces depth 2..4 tables", witness))
        s4 = asymptotics.stabilization_prefix(4)
        s5 = asymptotics.stabilization_prefix(5)
        nondecreasing = all(s4[i] <= s5[i] for i in s4 if i in s5)
        out.append(_true("stabilization_prefixes_nondecreasing", nondecreasing,
                         "agreement with the limit extends with depth"))
    return out


def _check_m2_asymptote_discrepancy(scope: str) -> list[CheckResult]:
    closed = percolation.cut_asymptote_closed_form_k2_m2(0.1)
    fixed = percolation.cut_fixed_point_m2(2, 0.1)
    asym_failure = 1.0 - percolation.percolation_infinite(2, 0.9)
    agree_at_zero = (percolation.cut_asymptote_closed_form_k2_m2(0.0) == 0.0
                     and percolation.cut_fixed_point_m2(2, 0.0) == 0.0)
    status = "flagged" if abs(closed - fixed) > 1e-9 else "pass"
    detail = (
        "two routes to the depth limit of the first binary cut bound disagree in "
        "the fourth decimal at q = 0.1. The value 0.0123457 sometimes quoted for "
        "the fixed point is actually the infinite-tree failure probability "
        f"1/81 = {asym_failure:.10f} at q = 0.1, a different quantity; the true "
        "smallest root of z = (z + 0.1)^2 is the rhs shown. Which route (if "
        "either) the closed form should match is an open question recorded here "
        "without failing the run; both routes agree at q = 0."
    )
    results = [CheckResult("m2_asymptote_discrepancy", status,
                           f"closed form {closed:.10f}", f"fixed point {fixed:.10f}", detail)]
    results.append(_true("m2_asymptote_agreement_at_zero", agree_at_zero,
                         "both routes vanish at q = 0"))
    return results


def _check_homology(scope: str) -> list[CheckResult]:
    if scope != "full":
        return []
    out = []
    cases = [("cut", 2, 2), ("cut", 3, 2), ("path", 2, 2)]
    for family, k, n in cases:
        spec = trees.TreeSpec(k, n)
        if family == "cut":
            ms = oracle.cut_monomials(spec)
            tb = resolutions.betti_table(resolutions.cut_gf(k, n))
        else:
            ms = oracle.path_monomials(spec)
            tb = resolutions.betti_table(resolutions.path_gf(k, n))
        hb = oracle.multigraded_betti_homology(ms)
        out.append(_eq(f"homology_oracle_{family}_k{k}_n{n}", hb.as_dict(), tb.as_dict(),
                       "Koszul-complex homology vs generating function"))
    return out


def _check_tensor_example(scope: str) -> list[CheckResult]:
    table_i = resolutions.BettiTable(_TENSOR_TABLE_I)
    table_j = resolutions.BettiTable(_TENSOR_TABLE_J)
    s = resolutions.tensor_sum_betti([table_i, table_j])
    p = resolutions.tensor_product_betti([table_i, table_j])
    return [
        _eq("tensor_sum_totals", s.totals(), _TENSOR_SUM_TOTALS),
        _eq("tensor_product_entries", p.as_dict(), _TENSOR_PRODUCT_ENTRIES),
    ]


def _check_closed_forms(scope: str) -> list[CheckResult]:
    rng = random.Random(20260819)

    def cases():
        for m in (1, 2, 3):
            for k in (2, 3):
                for n in (2, 3, 4):
                    tested = 0
                    while tested < (3 if scope == "quick" else 20):
                        p = Fraction(rng.randrange(1, 240), rng.randrange(240, 480))
                        if k * p == 1 or (k * p) ** 2 == 1:
                            continue
                        tested += 1
                        yield m, k, n, p

    witness = _first_failure(f"m={m} k={k} n={n} p={p}" for m, k, n, p in cases()
                             if (percolation.closed_form_path_bound(k, n, m, p)
                                 != percolation.path_bound(k, n, m, p).value))
    return [_true("closed_forms_match_truncations", not witness,
                  "rational closed forms equal the truncation bounds", witness)]


_CHECKS = [
    _check_golden_tables,
    _check_numerator_fixtures,
    _check_cut_routes,
    _check_mandelbrot_routes,
    _check_duality,
    _check_path_totals,
    _check_three_route,
    _check_taylor,
    _check_alexander_duality,
    _check_m_labeling,
    _check_sandwich,
    _check_critical_values,
    _check_percolation_infinite,
    _check_asymptotics,
    _check_m2_asymptote_discrepancy,
    _check_closed_forms,
    _check_tensor_example,
    _check_homology,
]


def run_verify(scope: str = "quick") -> VerifyReport:
    """Run the cross-check battery and return a deterministic report (no
    timings or environment data, so outputs are byte-stable)."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}")
    results: list[CheckResult] = []
    for fn in _CHECKS:
        name = fn.__name__.removeprefix("_check_")
        try:
            results.extend(fn(scope))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, "fail", f"raised {type(exc).__name__}",
                                       "no exception", str(exc)))
    return VerifyReport(scope=scope, checks=tuple(results))
