"""Command-line interface.

Subcommands: betti, hilbert, percolation, bound, curve, critical, asymptotic,
mandelbrot, verify.  All numeric inputs are parsed exactly — "a/b" fractions
and decimal strings become rationals with no binary rounding — and identical
invocations produce byte-identical artifacts (no timestamps or environment
data in any output).

Exit codes: 0 success, 1 verification-check failure, 2 usage or domain error,
3 budget exceeded (a size cap, or memory running out).

Each subcommand imports the modules it runs when it runs, so a launch loads
only those: ``--help`` loads none of the computing modules, and only
``verify`` loads the check battery and its oracles.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .bivar import _int_text
from .limits import SCOPES, BudgetExceededError, TreepercError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse_rational(text: str) -> Fraction:
    """Exact rational from "a/b" or a decimal string (powers of ten)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _exact_text(value: Fraction) -> str:
    """str(value) for a rational of any size."""
    text = _int_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_int_text(value.denominator)}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _gf(args: argparse.Namespace):
    from . import resolutions

    if args.ideal == "path":
        return resolutions.path_gf(args.k, args.n)
    return resolutions.cut_gf(args.k, args.n)


# -- subcommand bodies ----------------------------------------------------------


def cmd_betti(args: argparse.Namespace) -> int:
    from . import resolutions

    table = resolutions.betti_table(_gf(args))
    artifact = table.to_csv() if args.format == "csv" else _json_text(table.to_json_obj())
    if args.out:
        _emit(artifact, args.out)
        sys.stdout.write(table.render_layout())
    else:
        sys.stdout.write(artifact)
        sys.stdout.write("\n" + table.render_layout())
    return EXIT_OK


def cmd_hilbert(args: argparse.Namespace) -> int:
    from . import resolutions

    numerator = resolutions.gf_to_numerator(_gf(args))
    obj = {
        "ideal": args.ideal,
        "k": args.k,
        "n": args.n,
        "convention": "quotient; coefficient of x^i t^j is (-1)^(i+1) beta_{i,j}",
        "terms": numerator.to_json_obj(),
    }
    _emit(_json_text(obj), args.out)
    return EXIT_OK


def cmd_percolation(args: argparse.Namespace) -> int:
    from . import percolation

    if args.p is not None:
        side, at = "percolation", parse_rational(args.p)
    else:
        side, at = "failure", parse_rational(args.q)
    if args.n == "inf":
        prob = percolation.percolation_infinite(args.k, at if side == "percolation" else 1 - at)
        value = prob if side == "percolation" else 1.0 - prob
        exact = None
        n_field: object = "inf"
    else:
        n = int(args.n)
        if side == "percolation":
            value = percolation.percolation_exact(args.k, n, at)
        else:
            value = percolation.failure_exact(args.k, n, at)
        exact = _exact_text(value)
        n_field = n
    obj = {
        "k": args.k,
        "n": n_field,
        "side": side,
        "at": str(at),
        "exact": exact,
        "float": float(value),
    }
    _emit(_json_text(obj), args.out)
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    from . import percolation

    if args.ideal == "path":
        if args.p is None:
            raise ValueError("path bounds take --p")
        at = parse_rational(args.p)
        result = percolation.path_bound(args.k, args.n, args.m, at)
    else:
        if args.q is None:
            raise ValueError("cut bounds take --q")
        at = parse_rational(args.q)
        result = percolation.cut_bound(args.k, args.n, args.m, at)
    obj = {
        "ideal": args.ideal,
        "k": result.k,
        "n": result.n,
        "m": result.m,
        "at": str(at),
        "kind": result.kind,
        "exact": _exact_text(result.value),
        "float": float(result.value),
        "clamped_float": float(result.clamped),
    }
    _emit(_json_text(obj), args.out)
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    from . import percolation

    if args.preset == "figure3":
        rows = percolation.curve_figure3(args.samples)
    elif args.preset == "figure4":
        rows = percolation.curve_figure4(args.samples)
    else:
        if args.m_lower is None or args.m_upper is None:
            raise ValueError("custom curves need --m-lower and --m-upper")
        if args.ideal == "path":
            rows = percolation.curve_rows_path(args.k, args.n, args.m_lower,
                                               args.m_upper, args.samples)
        else:
            rows = percolation.curve_rows_cut(args.k, args.n, args.m_lower,
                                              args.m_upper, args.samples)
    _emit(percolation.render_curve_csv(rows, clamp=args.clamp), args.out)
    return EXIT_OK


def cmd_critical(args: argparse.Namespace) -> int:
    from . import percolation

    qs = percolation.q_star(args.k)
    exact = percolation.q_star_exact(args.k)
    if args.q is not None:
        sample_qs = [float(parse_rational(args.q))]
    else:
        sample_qs = [qs * j / 5.0 for j in range(1, 5)]
    samples = [{"q": q, "z": percolation.cut_fixed_point_m2(args.k, q)} for q in sample_qs]
    obj = {
        "k": args.k,
        "p_c": f"1/{args.k}",
        "q_star": qs,
        "q_star_exact": str(exact) if exact is not None else None,
        "fixed_point_samples": samples,
    }
    _emit(_json_text(obj), args.out)
    return EXIT_OK


def cmd_asymptotic(args: argparse.Namespace) -> int:
    from . import asymptotics

    table = asymptotics.asymptotic_table(args.m)
    if args.format == "csv":
        artifact = asymptotics.render_asymptotic_csv(table)
    else:
        artifact = _json_text(table.to_json_obj())
    if args.out:
        _emit(artifact, args.out)
        sys.stdout.write(table.render_layout())
    else:
        sys.stdout.write(artifact)
    return EXIT_OK


def cmd_mandelbrot(args: argparse.Namespace) -> int:
    from . import resolutions

    z = resolutions.mandelbrot_iterate(args.n, max_degree=args.m)
    # json.dumps writes ints through the digit-limited str(), so the text is laid
    # out here as json.dumps would, in one join to build it only once.
    head, tail = _json_text({"coefficients": [], "n": args.n, "truncated_at": args.m}).split("[]")
    items = [_int_text(z.coefficient(d, 0)) for d in range(max(z.deg_x, 0) + 1)]
    items[0] = head + "[\n    " + items[0]
    items[-1] += "\n  ]" + tail
    _emit(",\n    ".join(items), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    report = verify.run_verify(args.scope)
    artifact = report.to_json() if args.format == "json" else report.render_text()
    _emit(artifact, args.out)
    if args.out:
        sys.stdout.write(report.render_text())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeperc",
        description="Exact Betti tables, Hilbert numerators and percolation "
                    "bounds for path and cut ideals of complete k-ary trees.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, *, k: bool = False, n: bool = False,
               m: int | None = None, ideal: bool = False, fmt: str | None = None) -> None:
        if k:
            p.add_argument("--k", type=int, required=True, help="branching factor (>= 2)")
        if n:
            p.add_argument("--n", type=int, required=True, help="tree depth (>= 1)")
        if m is not None:
            p.add_argument("--m", type=int, default=m if m >= 0 else None,
                           required=m < 0, help="truncation depth / size limit")
        if ideal:
            p.add_argument("--ideal", choices=("path", "cut"), required=True)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default=fmt)
        p.add_argument("--out", help="write the artifact to this path instead of stdout")

    p = sub.add_parser("betti", help="graded Betti table of a tree ideal")
    common(p, k=True, n=True, ideal=True, fmt="csv")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("hilbert", help="bigraded Hilbert-series numerator as JSON")
    common(p, k=True, n=True, ideal=True)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("percolation", help="exact percolation / failure probability")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", required=True, help='tree depth, or "inf" for the limit')
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", help="edge operating probability (rational)")
    grp.add_argument("--q", help="edge failure probability (rational)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_percolation)

    p = sub.add_parser("bound", help="truncation bound at a point")
    common(p, k=True, n=True, m=-1, ideal=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--p", help="operating probability (path bounds)")
    grp.add_argument("--q", help="failure probability (cut bounds)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("curve", help="sampled exact-vs-bounds curves as CSV")
    p.add_argument("--preset", choices=("figure3", "figure4"))
    p.add_argument("--ideal", choices=("path", "cut"), default="path")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m-lower", type=int, dest="m_lower")
    p.add_argument("--m-upper", type=int, dest="m_upper")
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--clamp", action="store_true", help="clamp bound columns to [0, 1]")
    p.add_argument("--out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("critical", help="critical values p_c and q*, with fixed points")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", help="sample the first-bound fixed point at this q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("asymptotic", help="limiting Betti table prefix")
    p.add_argument("--m", type=int, default=14, help="number of offset rows")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("mandelbrot", help="Mandelbrot polynomial coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="truncate above this q-degree")
    common(p)
    p.set_defaults(func=cmd_mandelbrot)

    p = sub.add_parser("verify", help="run the self-verification battery")
    p.add_argument("--scope", choices=SCOPES, default="quick")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print(f"budget exceeded: out of memory in {args.subcommand}", file=sys.stderr)
        return EXIT_BUDGET
    except (TreepercError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
