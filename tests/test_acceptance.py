"""Acceptance gate: one test per numbered criterion.

Every test computes its criterion's clauses against the real engine, records
exactly one PASS/FAIL line through the ``acceptance`` fixture (replayed in the
terminal summary after the run), and then asserts.  Recording happens before
asserting so a failing criterion still reports the measured numbers.

All fixture values below are transcribed from the published tables and
worked examples; nothing is derived from the code under test.
"""
from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import resource

from treeperc import asymptotics, oracle, percolation, resolutions, verify
from treeperc.bivar import BivarPoly
from treeperc.resolutions import BettiTable
from treeperc.trees import TreeSpec

X = BivarPoly.monomial(1, 0)
T = BivarPoly.monomial(0, 1)


def _tp(*coeffs: int) -> BivarPoly:
    """Polynomial in t alone from ascending coefficients: _tp(1, 0, 2) = 1 + 2t^2."""
    return BivarPoly({(0, e): c for e, c in enumerate(coeffs)})


# -- published cut Betti tables (k = 2) -----------------------------------------
# Offset-row form: row r lists beta_{i, i+r} for i = 1, 2, ...  The depth-4 and
# depth-5 tables are published only through homological degree i = 7; rows there
# are the printed prefixes.

CUT_N2 = {(0, 0): 1, (1, 2): 1, (1, 3): 2, (1, 4): 1, (2, 4): 2, (2, 5): 2, (3, 6): 1}

CUT_N3_ROWS = {
    1: (1,), 2: (2, 2), 3: (5, 10, 5), 4: (6, 18, 18, 6),
    5: (6, 24, 36, 24, 6), 6: (4, 20, 40, 40, 20, 4), 7: (1, 6, 15, 20, 15, 6, 1),
}
CUT_N3_TOTALS = (1, 25, 80, 114, 90, 41, 10, 1)

CUT_N4_TOTALS = (1, 676, 5460, 21113, 51348, 87288, 109314, 103726)
CUT_N4_ROWS = {
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

CUT_N5_TOTALS = (1, 458329, 8308144, 73630338, 424216050, 1783078865,
                 5818552406, 15319701281)
CUT_N5_ROWS = {
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

# Published limit table (depth -> infinity, k = 2), same offset-row form,
# printed through i = 7.  Column i = 1 is the Catalan sequence.
INF_ROWS = {
    1: (1,), 2: (2, 2), 3: (5, 10, 5), 4: (14, 42, 42, 14),
    5: (42, 168, 252, 168, 42), 6: (132, 660, 1320, 1320, 660, 132),
    7: (429, 2574, 6435, 8580, 6435, 2574, 429),
    8: (1430, 10010, 30030, 50050, 50050, 30030, 10010),
    9: (4862, 38896, 136136, 272272, 340340, 272272, 136136),
    10: (16796, 151164, 604656, 1410864, 2116296, 2116296, 1410864),
    11: (58786, 587860, 2645370, 7054320, 12345060, 14814072, 12345060),
    12: (208012, 2288132, 11440660, 34321980, 68643960, 96101544, 96101544),
    13: (742900, 8914800, 49031400, 163438000, 367735500, 588376800, 686439600),
    14: (2674440, 34767720, 208606320, 764889840, 1912224600, 3442004280,
         4589339040),
}


def _rows_to_dict(rows: dict[int, tuple[int, ...]]) -> dict[tuple[int, int], int]:
    out = {(0, 0): 1}
    for r, row in rows.items():
        for i, beta in enumerate(row, start=1):
            out[(i, i + r)] = beta
    return out


def test_criterion_01_golden_tables(acceptance):
    t0 = time.perf_counter()
    tables = {n: resolutions.betti_table(resolutions.cut_gf(2, n)) for n in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0

    ok_n2 = tables[2].as_dict() == CUT_N2
    # The depth-3 table is published in full, so compare every entry.
    ok_n3 = (tables[3].as_dict() == _rows_to_dict(CUT_N3_ROWS)
             and tables[3].totals() == CUT_N3_TOTALS)
    ok_n4 = (tables[4].totals()[:8] == CUT_N4_TOTALS
             and all(tables[4].offset_row(r, max_i=len(row)) == row
                     for r, row in CUT_N4_ROWS.items()))
    ok_n5 = (tables[5].totals()[:8] == CUT_N5_TOTALS
             and all(tables[5].offset_row(r, max_i=len(row)) == row
                     for r, row in CUT_N5_ROWS.items()))
    ok = ok_n2 and ok_n3 and ok_n4 and ok_n5 and elapsed < 5.0
    detail = (f"cut tables n=2,3 full and n=4,5 printed prefixes (i<=7, offsets 1-14) "
              f"match exactly; computed in {elapsed:.2f}s (< 5s)")
    assert acceptance(1, ok, detail), detail


def test_criterion_02_numerator_fixtures(acceptance):
    # Worked-example numerators for k = 2 in factored form.
    expected_n2 = (T ** 2 * _tp(1, 1) ** 2 * X
                   - T ** 4 * _tp(1, 1) * X ** 2 * 2
                   + T ** 6 * X ** 3)
    f = _tp(1, 1, 2, 1)  # t^3 + 2t^2 + t + 1
    expected_n3 = (T ** 2 * f ** 2 * X
                   - T ** 4 * f * _tp(1, 1) * _tp(1, 3) * X ** 2 * 2
                   + T ** 6 * _tp(5, 18, 36, 40, 15) * X ** 3
                   - T ** 8 * _tp(3, 12, 20, 10) * X ** 4 * 2
                   + T ** 10 * _tp(6, 20, 15) * X ** 5
                   - T ** 12 * _tp(2, 3) * X ** 6 * 2
                   + T ** 14 * X ** 7)
    h2 = resolutions.gf_to_numerator(resolutions.cut_gf(2, 2))
    h3 = resolutions.gf_to_numerator(resolutions.cut_gf(2, 3))
    top = {(i, j): c for i, j, c in h3.terms() if i == 7}
    ok = h2 == expected_n2 and h3 == expected_n3 and top == {(7, 14): 1}
    detail = ("failure numerators for depths 2 and 3 (k=2) equal the worked-example "
              "polynomials termwise; x^7 coefficient of the depth-3 numerator is t^14")
    assert acceptance(2, ok, detail), detail


def test_criterion_03_path_totals(acceptance):
    bad = []
    for k in (2, 3):
        for n in (1, 2, 3):
            g = k ** n
            expected = tuple(math.comb(g, i) for i in range(g + 1))
            totals = resolutions.betti_table(resolutions.path_gf(k, n)).totals()
            if totals != expected:
                bad.append((k, n))
    ok = not bad
    detail = ("path-ideal totals equal binomials C(k^n, i) for all i, "
              "k<=3, n<=3 (largest case 27 generators)"
              + (f"; FAILED at {bad}" if bad else ""))
    assert acceptance(3, ok, detail), detail


def test_criterion_04_oracle_equivalence(acceptance):
    pairs = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
    ps = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    t0 = time.perf_counter()
    bad = []
    for k, n in pairs:
        spec = TreeSpec(k, n)
        series = resolutions.gf_to_numerator(resolutions.path_gf(k, n)).eval_x1()
        for p in ps:
            a = oracle.reliability_exhaustive(spec, p)
            b = percolation.percolation_exact(k, n, p)
            c = series.evaluate(p)
            if not (a == b == c):
                bad.append((k, n, p))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    detail = (f"exhaustive sweep == recursion == numerator evaluation (exact rationals) "
              f"on 5 trees x 3 probabilities in {elapsed:.1f}s (< 30s)"
              + (f"; FAILED at {bad}" if bad else ""))
    assert acceptance(4, ok, detail), detail


def test_criterion_05_duality_identity(acceptance):
    bad = []
    for k in (2, 3):
        for n in (1, 2, 3):
            operating = resolutions.gf_to_numerator(resolutions.path_gf(k, n)).eval_x1()
            failure = resolutions.gf_to_numerator(resolutions.cut_gf(k, n)).eval_x1()
            if operating != 1 - failure.substitute_one_minus_t():
                bad.append((k, n))
    ok = not bad
    detail = ("P(p) = 1 - Pfail(1-p) holds as an exact polynomial identity "
              "for k<=3, n<=3" + (f"; FAILED at {bad}" if bad else ""))
    assert acceptance(5, ok, detail), detail


def test_criterion_06_homology_oracle(acceptance):
    t0 = time.perf_counter()
    bad = []
    for k, n in ((2, 2), (3, 2)):
        mons = oracle.cut_monomials(TreeSpec(k, n))
        from_homology = oracle.multigraded_betti_homology(mons)
        from_gf = resolutions.betti_table(resolutions.cut_gf(k, n))
        if from_homology.as_dict() != from_gf.as_dict():
            bad.append((k, n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    detail = (f"simplicial-homology Betti tables equal generating-function tables "
              f"for cut ideals (2,2) and (3,2) in {elapsed:.1f}s (< 5min)"
              + (f"; FAILED at {bad}" if bad else ""))
    assert acceptance(6, ok, detail), detail


def test_criterion_07_sandwich(acceptance):
    grid = [Fraction(i, 100) for i in range(1, 100)]
    violations = 0
    checked = 0
    kind_errors = []
    for n in (1, 2, 3, 4):
        exact_op = resolutions.gf_to_numerator(resolutions.path_gf(2, n)).eval_x1()
        exact_fail = resolutions.gf_to_numerator(resolutions.cut_gf(2, n)).eval_x1()
        for m in range(1, 7):
            for family, poly, exact, full_deg in (
                ("path", percolation.path_bound_poly(2, n, m), exact_op, 2 ** n),
                ("cut", percolation.cut_bound_poly(2, n, m), exact_fail, 2 ** n - 1),
            ):
                bound_at = percolation.path_bound if family == "path" else percolation.cut_bound
                result = bound_at(2, n, m, Fraction(1, 2))
                expected_kind = ("exact" if m >= full_deg
                                 else f"{family}_{'upper' if m % 2 else 'lower'}")
                if result.kind != expected_kind or result.value != poly.evaluate(Fraction(1, 2)):
                    kind_errors.append((family, n, m))
                for r in grid:
                    bound_value, exact_value = poly.evaluate(r), exact.evaluate(r)
                    checked += 1
                    if expected_kind.endswith("upper") and bound_value < exact_value:
                        violations += 1
                    elif expected_kind.endswith("lower") and bound_value > exact_value:
                        violations += 1
                    elif expected_kind == "exact" and bound_value != exact_value:
                        violations += 1
    ok = violations == 0 and not kind_errors
    detail = (f"even-m bounds <= exact <= odd-m bounds at exact rational arithmetic: "
              f"{violations} violations over {checked} comparisons "
              f"(99-point grid, path and cut sides, k=2, n<=4, m<=6)"
              + (f"; kind/value errors {kind_errors}" if kind_errors else ""))
    assert acceptance(7, ok, detail), detail


def test_criterion_08_critical_values(acceptance):
    ok_exact = percolation.q_star_exact(2) == Fraction(1, 4)
    ok_num = abs(percolation.q_star(2) - 0.25) <= 1e-12
    converged = percolation.cut_bound_m2_recursive(2, 60, 0.2)
    ok_root = abs(converged - 0.0763932023) <= 1e-9  # smallest root of z = (z+0.2)^2
    diverge_n = next((n for n in range(1, 26)
                      if percolation.cut_bound_m2_recursive(2, n, 0.3) > 1e6), None)
    ok = ok_exact and ok_num and ok_root and diverge_n is not None
    detail = (f"q*_2 = 1/4 exactly and to 1e-12; depth-60 m=2 recursion at q=0.2 gives "
              f"{converged:.10f} (within 1e-9 of 0.0763932023); at q=0.3 it exceeds "
              f"1e6 by n={diverge_n} (<= 25)")
    assert acceptance(8, ok, detail), detail


def test_criterion_09_infinite_percolation(acceptance):
    at_three_quarters = percolation.percolation_infinite(2, 0.75)
    ok_value = abs(at_three_quarters - 8 / 9) <= 1e-10
    ok_zero = all(percolation.percolation_infinite(k, p) == 0.0
                  for k in (2, 3, 4) for p in (1 / k, 1 / k - 0.01, 0.01))
    gaps = {p: abs(percolation.percolation_exact(2, 30, p)
                   - percolation.percolation_infinite(2, p))
            for p in (0.6, 0.75, 0.9)}
    ok_gaps = all(g < 1e-6 for g in gaps.values())
    ok = ok_value and ok_zero and ok_gaps
    detail = (f"P_inf(2, 3/4) = {at_three_quarters:.12f} (8/9 within 1e-10: {ok_value}); "
              f"zero for p <= 1/k at k=2,3,4: {ok_zero}; depth-30 vs infinite gaps "
              + ", ".join(f"p={p}: {g:.2e}" for p, g in sorted(gaps.items()))
              + " against tolerance 1e-06"
              + ("" if ok_gaps else
                 " -- the depth-30 iterate has not converged at p=0.6 "
                 "(the recursion contracts by its slope 2p(1 - pP*) = 0.80 per level, "
                 "so the gap first falls below 1e-6 at depth 55); "
                 "the p=0.75 and p=0.9 clauses hold"))
    assert acceptance(9, ok, detail), detail


def test_criterion_10_asymptotics(acceptance):
    table_bad = [(i, i + r) for r, row in INF_ROWS.items()
                 for i in range(1, len(row) + 1)
                 if asymptotics.asymptotic_betti_k2(i, i + r) != row[i - 1]]
    ok_spot = asymptotics.asymptotic_betti_k2(2, 6) == 42
    catalan_column = tuple(asymptotics.asymptotic_betti_k2(1, 1 + r) for r in range(1, 11))
    ok_catalan = catalan_column == (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
    ok_mandelbrot = asymptotics.mandelbrot_poly(4).coefficients[1:] == (1, 1, 2, 5, 6, 6, 4, 1)

    t4 = resolutions.betti_table(resolutions.cut_gf(2, 4))
    t5 = resolutions.betti_table(resolutions.cut_gf(2, 5))
    ok_rows = (t4.offset_row(5, max_i=5) == (26, 104, 156, 104, 26)
               and t5.offset_row(5, max_i=5) == (42, 168, 252, 168, 42))
    prefix4 = asymptotics.stabilization_prefix(4, t4)
    prefix5 = asymptotics.stabilization_prefix(5, t5)
    ok_prefix = all(prefix5[i] >= prefix4[i] for i in prefix4 if i in prefix5)

    ok = not table_bad and ok_spot and ok_catalan and ok_mandelbrot and ok_rows and ok_prefix
    detail = ("asymptotic formula reproduces the full printed limit table "
              "(offsets 1-14, i<=7; beta(2,6)=42; Catalan first-syzygy column); "
              "4th Mandelbrot iterate coefficients (1,1,2,5,6,6,4,1); offset-row 5 "
              "stabilizes from (26,104,156,104,26) at n=4 to (42,168,252,168,42) at "
              "n=5; stabilization prefixes nondecreasing n=4 -> n=5"
              + (f"; table mismatches {table_bad[:4]}" if table_bad else ""))
    assert acceptance(10, ok, detail), detail


def test_criterion_11_closed_forms(acceptance, rng):
    bad = []
    count = 0
    for m in (1, 2, 3):
        for k in (2, 3):
            for n in (2, 3, 4):
                for _ in range(20):
                    # Denominator 97 is prime, so p never hits the poles at
                    # 1/k or 1/k^2 (denominators 2, 3, 4, 9).
                    p = Fraction(rng.randint(1, 96), 97)
                    count += 1
                    closed = percolation.closed_form_path_bound(k, n, m, p)
                    truncated = percolation.path_bound(k, n, m, p).value
                    if closed != truncated:
                        bad.append((m, k, n, p))
    ok = not bad
    detail = (f"closed-form bounds m in {{1,2,3}} equal truncation bounds exactly at "
              f"{count} random rationals (k in {{2,3}}, n in {{2,3,4}}, seeded, "
              f"denominator 97 avoids poles)" + (f"; FAILED at {bad[:3]}" if bad else ""))
    assert acceptance(11, ok, detail), detail


def test_criterion_12_tensor_fixtures(acceptance):
    # Worked appendix example: I = <x1x2x3, x2x4, x1x5x6>, J = <y1y2y3, y2y4y5>.
    table_i = BettiTable({(0, 0): 1, (1, 2): 1, (1, 3): 2, (2, 4): 1, (2, 5): 2, (3, 6): 1})
    table_j = BettiTable({(0, 0): 1, (1, 3): 2, (2, 5): 1})

    sum_table = resolutions.tensor_sum_betti([table_i, table_j])
    prod_table = resolutions.tensor_product_betti([table_i, table_j])

    # Printed numerator of S/(I+J):
    # 1 - x(t^2+4t^3) + x^2(t^4+5t^5+4t^6) - x^3(t^6+3t^7+6t^8) + x^4(3t^9+2t^10) - x^5 t^11
    expected_sum_num = (BivarPoly.one()
                        - X * (T ** 2 + T ** 3 * 4)
                        + X ** 2 * (T ** 4 + T ** 5 * 5 + T ** 6 * 4)
                        - X ** 3 * (T ** 6 + T ** 7 * 3 + T ** 8 * 6)
                        + X ** 4 * (T ** 9 * 3 + T ** 10 * 2)
                        - X ** 5 * T ** 11)
    # Printed numerator of S/(IJ):
    # 1 - x(2t^5+4t^6) + x^2(3t^7+6t^8) - x^3(3t^9+2t^10) + x^4 t^11
    expected_prod_num = (BivarPoly.one()
                         - X * (T ** 5 * 2 + T ** 6 * 4)
                         + X ** 2 * (T ** 7 * 3 + T ** 8 * 6)
                         - X ** 3 * (T ** 9 * 3 + T ** 10 * 2)
                         + X ** 4 * T ** 11)

    def numerator_of(table: BettiTable) -> BivarPoly:
        return BivarPoly(
            {(i, j): (-1) ** i * beta for (i, j), beta in table.as_dict().items()})

    ok_sum = (sum_table.totals() == (1, 5, 10, 10, 5, 1)
              and numerator_of(sum_table) == expected_sum_num)
    ok_prod = (prod_table.totals() == (1, 6, 9, 5, 1)
               and numerator_of(prod_table) == expected_prod_num)
    ok = ok_sum and ok_prod
    detail = ("tensor sum/product of the worked-example tables reproduce the printed "
              "results: S/(I+J) totals (1,5,10,10,5,1) and numerator; S/(IJ) totals "
              "(1,6,9,5,1) and numerator 1 - x(2t^5+4t^6) + x^2(3t^7+6t^8) "
              "- x^3(3t^9+2t^10) + x^4 t^11; all exact")
    assert acceptance(12, ok, detail), detail


def test_criterion_13_performance(acceptance):
    t0 = time.perf_counter()
    resolutions.cut_gf(2, 7)
    t7 = time.perf_counter() - t0
    t0 = time.perf_counter()
    resolutions.cut_gf(2, 8)
    t8 = time.perf_counter() - t0
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mib = raw / (1 << 20) if sys.platform == "darwin" else raw / 1024

    # The stored baseline is read, never rewritten: a test run leaves the
    # checkout as it found it, and this run's timings go to the detail line.
    bench_path = Path(__file__).resolve().parents[1] / "benchmarks" / "cut_gf_timing.json"
    baseline = json.loads(bench_path.read_text())["baseline"]

    # Regression gate against the recorded baseline; the 50 ms floor keeps
    # scheduler noise on near-instant measurements from flagging.
    measured = {"cut_gf_2_7_s": t7, "cut_gf_2_8_s": t8}
    regressed = [key for key, t in measured.items()
                 if t > 3 * max(baseline[key], 0.05)]
    ok = t7 < 10.0 and t8 < 120.0 and rss_mib < 4096.0 and not regressed
    detail = (f"cut_gf(2,7) {t7:.4f}s (< 10s), cut_gf(2,8) {t8:.4f}s (< 120s), "
              f"peak RSS {rss_mib:.1f} MiB (< 4096); baseline in {bench_path.name}: "
              f"{baseline['cut_gf_2_7_s']}s, {baseline['cut_gf_2_8_s']}s"
              + (f"; REGRESSED vs baseline: {regressed}" if regressed else ""))
    assert acceptance(13, ok, detail), detail


def test_criterion_14_documented_discrepancy(acceptance):
    report = verify.run_verify("quick")
    flagged = [c for c in report.checks
               if c.status == "flagged" and "m2_asymptote" in c.name]
    closed = percolation.cut_asymptote_closed_form_k2_m2(0.1)
    fixed = percolation.cut_fixed_point_m2(2, 0.1)
    true_fixed = (0.8 - math.sqrt(0.6)) / 2  # smallest root of z = (z + 0.1)^2
    ok = (len(flagged) == 1 and report.ok
          and abs(closed - 0.0123310) < 2e-6
          and abs(fixed - true_fixed) < 1e-12)
    detail = (f"verification battery computes closed-form asymptote {closed:.7f} "
              f"(published rounding 0.0123310) and m=2 fixed point {fixed:.7f} at "
              f"q=0.1, flags their mismatch (the published fixed-point value "
              f"0.0123457 is 1/81, the infinite-tree failure probability) as check "
              f"'{flagged[0].name if flagged else '?'}' without failing: "
              f"report ok={report.ok}")
    assert acceptance(14, ok, detail), detail
