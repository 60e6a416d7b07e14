"""The benchmark tracer's contract with the program.

``perfbench/tracer.py`` wraps treeperc's functions from outside and observes
the operands of every big multiply through ``.bit_length()``.  This test
loads that file as it is and replays one CLI command under its trace, so a
change that breaks the tracer fails here rather than in a benchmark run.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("bivar", "resolutions", "percolation", "asymptotics", "verify", "oracle", "cli")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_path_betti_observes_its_kronecker_product():
    tracer = load_tracer()
    modules = {name: importlib.import_module("treeperc." + name) for name in MODULES}
    trace = tracer.Trace()
    undo, missing, _ = tracer.install(trace, modules)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            # path_gf(2, 6) squares one 294-term polynomial by Kronecker.
            code = modules["cli"].main(["betti", "--ideal", "path", "--k", "2", "--n", "6"])
    finally:
        for setter, key, value in reversed(undo):
            setter(key, value)
    assert code == 0
    assert out.getvalue().startswith("i,j,beta\n")
    assert missing == []
    stats = trace.metrics()
    assert stats["bivar.kronecker"]["calls"] == 1
    assert stats["bivar.bigmul"]["calls"] == 1
    assert stats["bivar.bigmul"]["max_bits"] > 0
