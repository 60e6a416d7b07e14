"""In-process traced replay of a workload's CLI commands.

    python3 perfbench/tracer.py SPEC.json RESULT.json

``run.py`` starts this as a child process.  It calls ``treeperc.cli.main``
for each command with stdout and stderr captured, alternating plain and
traced passes until the next pass would end after the spec's seconds (at
least one of each).  Tracing wraps functions and methods of each treeperc
layer from outside, at every binding the program calls them through, and
records a span (name, start, end, parent) per call.  Plain passes run the
unwrapped code, so the ratio of the two pass times is the tracing overhead.

The result holds per-pass exit codes and artifact files, the per-layer
metrics of each traced pass, and the self time per span name of the last
traced pass, whose spans are also written to a JSON-lines file.  Python's
int/str digit limit is left as the environment sets it, as for the CLI.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

# Span name -> the functions it times, as (module, dotted attribute).  A
# target missing from the program is skipped and its metrics are reported
# missing.
TARGETS = {
    "bivar.mul": [("bivar", "BivarPoly.__mul__")],
    "bivar.schoolbook": [("bivar", "_mul_schoolbook")],
    "bivar.kronecker": [("bivar", "_mul_kronecker")],
    "bivar.bigmul": [("bivar", "_big_mul")],
    "resolutions.power": [("bivar", "BivarPoly.power")],
    "resolutions.gf": [("resolutions", "cut_gf"), ("resolutions", "path_gf")],
    "resolutions.betti_table": [("resolutions", "betti_table")],
    "resolutions.numerator": [("resolutions", "gf_to_numerator")],
    "percolation.bound_poly": [("percolation", "path_bound_poly"),
                               ("percolation", "cut_bound_poly")],
    "percolation.eval": [("bivar", "UniPoly.evaluate")],
    "percolation.exact": [("percolation", "percolation_exact"),
                          ("percolation", "failure_exact")],
    "percolation.curve": [("percolation", name) for name in (
        "curve_rows_path", "curve_rows_cut", "curve_rows_cut_dual",
        "curve_figure3", "curve_figure4")],
    "percolation.critical": [("percolation", "q_star"), ("percolation", "q_star_exact"),
                             ("percolation", "cut_fixed_point_m2")],
    "asymptotics.mandelbrot": [("asymptotics", "mandelbrot_poly")],
    "asymptotics.table": [("asymptotics", "asymptotic_table")],
    "verify.run": [("verify", "run_verify")],
    "oracle.homology": [("oracle", "multigraded_betti_homology")],
    "oracle.taylor": [("oracle", "taylor_numerator")],
    "oracle.exhaustive": [("oracle", "reliability_exhaustive"),
                          ("oracle", "failure_exhaustive"),
                          ("oracle", "union_probability_exhaustive")],
    "oracle.alexander_dual": [("oracle", "alexander_dual")],
    "cli.render": [("resolutions", "BettiTable.to_csv"),
                   ("resolutions", "BettiTable.render_layout"),
                   ("resolutions", "BettiTable.to_json_obj"),
                   ("bivar", "BivarPoly.to_json_obj"),
                   ("percolation", "render_curve_csv"),
                   ("asymptotics", "render_asymptotic_csv"),
                   ("verify", "VerifyReport.render_text"),
                   ("verify", "VerifyReport.to_json"),
                   ("cli", "_json_text")],
}

# Metric -> (span name, statistic).  "s" is inclusive time of the outermost
# spans of that name, "self_s" their self time, "calls" the span count,
# "max_s" the longest span; other statistics are maxima or sums that the
# observers below record.
METRICS = {
    "bivar.mul_calls": ("bivar.mul", "calls"),
    "bivar.mul_s": ("bivar.mul", "s"),
    "bivar.schoolbook_calls": ("bivar.schoolbook", "calls"),
    "bivar.schoolbook_s": ("bivar.schoolbook", "s"),
    "bivar.kronecker_calls": ("bivar.kronecker", "calls"),
    "bivar.kronecker_s": ("bivar.kronecker", "s"),
    "bivar.bigmul_s": ("bivar.bigmul", "s"),
    "bivar.bigmul_max_bits": ("bivar.bigmul", "max_bits"),
    "bivar.pack_s": ("bivar.kronecker", "self_s"),
    "resolutions.gf_s": ("resolutions.gf", "s"),
    "resolutions.power_calls": ("resolutions.power", "calls"),
    "resolutions.power_s": ("resolutions.power", "s"),
    "resolutions.level_max_s": ("resolutions.power", "max_s"),
    "resolutions.gf_terms": ("resolutions.gf", "terms"),
    "resolutions.gf_max_coeff_bits": ("resolutions.gf", "max_bits"),
    "resolutions.betti_table_s": ("resolutions.betti_table", "s"),
    "resolutions.numerator_s": ("resolutions.numerator", "s"),
    "percolation.bound_poly_s": ("percolation.bound_poly", "s"),
    "percolation.eval_s": ("percolation.eval", "s"),
    "percolation.exact_s": ("percolation.exact", "s"),
    "percolation.exact_denominator_bits": ("percolation.exact", "max_bits"),
    "percolation.curve_s": ("percolation.curve", "s"),
    "percolation.critical_s": ("percolation.critical", "s"),
    "asymptotics.mandelbrot_s": ("asymptotics.mandelbrot", "s"),
    "asymptotics.mandelbrot_coeff_bits": ("asymptotics.mandelbrot", "max_bits"),
    "asymptotics.table_s": ("asymptotics.table", "s"),
    "verify.run_s": ("verify.run", "s"),
    "oracle.homology_s": ("oracle.homology", "s"),
    "oracle.taylor_s": ("oracle.taylor", "s"),
    "oracle.exhaustive_s": ("oracle.exhaustive", "s"),
    "oracle.alexander_dual_s": ("oracle.alexander_dual", "s"),
    "cli.render_s": ("cli.render", "s"),
}


def _observe_bigmul(args, result):
    return {"max_bits": max(args[0].bit_length(), args[1].bit_length())}


def _observe_gf(args, result):
    return {"terms": result.term_count(), "max_bits": result.max_coeff_bits()}


def _observe_exact(args, result):
    return {"max_bits": result.denominator.bit_length() if isinstance(result, Fraction) else 0}


def _observe_mandelbrot(args, result):
    return {"max_bits": max((abs(c).bit_length() for c in result.coefficients), default=0)}


OBSERVERS = {
    "bivar.bigmul": _observe_bigmul,
    "resolutions.gf": _observe_gf,
    "percolation.exact": _observe_exact,
    "asymptotics.mandelbrot": _observe_mandelbrot,
}


class Trace:
    """Spans and observations of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.observed: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if observe is not None:
                seen = self.observed[name]
                for key, value in observe(args, result).items():
                    # term counts add up over calls; bit sizes keep the largest
                    seen[key] = seen[key] + value if key == "terms" else max(seen[key], value)
            return result

        return traced

    def metrics(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive time of the outermost spans, self time,
        call count, longest span and the observations."""
        names = [s[0] for s in self.spans]
        child_s = [0.0] * len(self.spans)
        outermost = [True] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
            p = parent
            while p >= 0:
                if names[p] == name:
                    outermost[index] = False
                    break
                p = self.spans[p][3]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "max_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += end - start - child_s[index]
            st["max_s"] = max(st["max_s"], end - start)
            if outermost[index]:
                st["s"] += end - start
        for name, seen in self.observed.items():
            stats[name].update(seen)
        return stats


def _resolve(modules: dict, module: str, dotted: str):
    owner = modules[module]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def _namespaces():
    """Every namespace a caller can reach a function through: the globals of
    each treeperc module, their class dictionaries and module-level lists
    (verify's check table)."""
    for name, module in list(sys.modules.items()):
        if name != "treeperc" and not name.startswith("treeperc."):
            continue
        yield module.__dict__, lambda key, value, ns=module: setattr(ns, key, value)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield dict(vars(value)), lambda key, v, cls=value: setattr(cls, key, v)
            elif isinstance(value, list):
                yield dict(enumerate(value)), value.__setitem__


def install(trace: Trace, modules: dict) -> tuple[list, list[str], list[str]]:
    """Replace every binding of each target by its traced wrapper.  Returns
    the undo list, the span names whose targets are missing and all span
    names."""
    wrappers: dict[int, object] = {}
    missing = []
    verify = modules["verify"]
    targets = dict(TARGETS)
    for attr in sorted(vars(verify)):
        if attr.startswith("_check_"):
            targets["verify.check." + attr.removeprefix("_check_")] = [("verify", attr)]
    for name, refs in targets.items():
        for module, dotted in refs:
            try:
                fn = _resolve(modules, module, dotted)
            except AttributeError:
                missing.append(name)
                continue
            wrappers.setdefault(id(fn), (fn, trace.wrap(name, fn)))
    undo = []
    for namespace, setter in list(_namespaces()):
        for key, value in list(namespace.items()):
            found = wrappers.get(id(value))
            if found is not None and found[0] is value:
                setter(key, found[1])
                undo.append((setter, key, value))
    return undo, sorted(set(missing)), sorted(targets)


def layer_metrics(stats: dict, span_names: list[str], missing: list[str],
                  artifact_bytes: int) -> dict[str, float]:
    out = {}
    for metric, (span, statistic) in METRICS.items():
        if span not in missing:
            out[metric] = stats.get(span, {}).get(statistic, 0)
    for span in span_names:
        if span.startswith("verify.check.") and span not in missing:
            out[span + "_s"] = stats.get(span, {}).get("s", 0.0)
    out["cli.artifact_bytes"] = artifact_bytes
    return out


def run_pass(cli, commands: list[list[str]]) -> tuple[float, list[dict]]:
    wall = 0.0
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the CLI would die with a traceback and exit 1
                traceback.print_exc()
                code = 1
            elapsed = time.perf_counter() - start
        wall += elapsed
        results.append({"wall_s": elapsed, "exit": code,
                        "stdout": out.getvalue().encode("utf-8"), "stderr": err.getvalue()})
    return wall, results


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    names = ("bivar", "resolutions", "percolation", "asymptotics", "verify", "oracle", "cli")
    modules = {name: importlib.import_module("treeperc." + name) for name in names}
    cli = modules["cli"]

    passes = []
    walls = {False: [], True: []}
    last_trace = None
    traced_next = False
    while not (walls[False] and walls[True]) or (
            sum(walls[False] + walls[True]) + statistics.median(walls[traced_next])
            <= spec["seconds"]):
        trace = Trace() if traced_next else None
        undo, missing, span_names = install(trace, modules) if trace else ([], [], [])
        try:
            wall, results = run_pass(cli, spec["commands"])
        finally:
            for setter, key, value in reversed(undo):
                setter(key, value)
        record = {"traced": traced_next, "wall_s": wall, "commands": []}
        for result in results:
            artifact = f"trace-{hashlib.sha256(result['stdout']).hexdigest()[:32]}.out"
            if not (WORK / artifact).exists():
                (WORK / artifact).write_bytes(result["stdout"])
            record["commands"].append({"wall_s": result["wall_s"], "exit": result["exit"],
                                       "stderr": result["stderr"], "artifact": artifact})
        if trace is not None:
            stats = trace.metrics()
            artifact_bytes = sum(len(r["stdout"]) for r in results)
            record["layers"] = layer_metrics(stats, span_names, missing, artifact_bytes)
            last_trace = (trace, stats)
        passes.append(record)
        walls[traced_next].append(wall)
        traced_next = not traced_next

    trace, stats = last_trace
    spans_path = WORK / f"spans-{spec['workload']}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in trace.spans:
            fh.write(json.dumps(span) + "\n")
    self_s = {name: st["self_s"] for name, st in sorted(stats.items())}
    Path(result_path).write_text(json.dumps({
        "passes": passes, "self_s": self_s,
        "spans": str(spans_path.relative_to(ROOT)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
