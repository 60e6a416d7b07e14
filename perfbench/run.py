"""treeperc benchmark: CLI workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload gf_full --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --compare A.json B.json

Run from the repository root.  One client runs ``python -m treeperc.cli``
commands one after another (a closed loop), in passes over the workload's
command list, until the next pass would end after ``--seconds`` of measured
command time; at least one pass runs.  Every artifact is checked by
``checks.py`` after its command ends, outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics of an
in-process replay (``tracer.py``).  Each run also writes a record with the
environment, every sample and every artifact's sha256 to
``.perfbench-work/``; ``--compare`` sets two records side by side and refuses
records from different environments.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("gf_full", "bounds_eval", "verify_battery")
# Denominators of the seeded --p/--q points.  Above 61 the exact cut bound at
# n = 11 (degree 2050 in q) would print more than 4,300 digits and fail.
DENOMINATORS = (11, 61)
SETUP_LAUNCHES = 15
NOOP = ("--help",)
SAMPLE_KEYS = ("wall_s", "cpu_s", "peak_rss_mib", "slowdown", "exit")
# The machine is shared, and its speed drifts by up to half over a minute.
# Every launch is bracketed by a fixed piece of reference work, and times are
# reported at the speed at which that work takes REFERENCE_S seconds: its
# typical time on an idle 2-core Xeon sandbox with Python 3.11.
REFERENCE_S = 0.04


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]

    @property
    def line(self) -> str:
        return " ".join(self.argv)


def _draw(rng: random.Random, lo: Fraction, hi: Fraction,
          avoid: Fraction | None = None) -> Fraction:
    """A rational in [lo, hi] whose denominator lies in DENOMINATORS."""
    while True:
        b = rng.randint(*DENOMINATORS)
        value = Fraction(rng.randint(math.ceil(lo * b), math.floor(hi * b)), b)
        if value != avoid:
            return value


def workload_commands(name: str, seed: int, checks) -> list[Command]:
    """The command list of one workload.  The seed draws only the free
    rational points; k, n and m set the amount of work and stay fixed."""
    rng = random.Random(seed)
    F = Fraction

    def cmd(text: str, check, **params) -> Command:
        return Command(tuple(text.split()), partial(check, **params))

    if name == "gf_full":
        p, q = _draw(rng, F(1, 10), F(9, 10)), _draw(rng, F(1, 10), F(9, 10))
        return [
            cmd("betti --ideal cut --k 2 --n 8", checks.cut_betti_k2, n=8),
            cmd("betti --ideal path --k 2 --n 8", checks.path_betti, k=2, n=8, p=p),
            cmd("hilbert --ideal cut --k 3 --n 5", checks.cut_hilbert, k=3, n=5, q=q),
        ]
    if name == "bounds_eval":
        q11, q10 = _draw(rng, F(1, 20), F(1, 5)), _draw(rng, F(1, 20), F(1, 5))
        # p = 1/2 is a pole of the closed form the path check compares with.
        p12 = _draw(rng, F(1, 10), F(9, 10), avoid=F(1, 2))
        p14 = _draw(rng, F(1, 10), F(9, 10))
        q_crit = _draw(rng, F(1, 20), F(7, 20))  # below q* = 0.3849 for k = 3
        return [
            cmd(f"bound --ideal cut --k 2 --n 11 --m 3 --q {q11}", checks.bound,
                ideal="cut", k=2, n=11, m=3, at=q11),
            cmd(f"bound --ideal cut --k 2 --n 10 --m 4 --q {q10}", checks.bound,
                ideal="cut", k=2, n=10, m=4, at=q10),
            cmd(f"bound --ideal path --k 2 --n 12 --m 3 --p {p12}", checks.bound,
                ideal="path", k=2, n=12, m=3, at=p12),
            # Known defect: the exact value has more than 4,300 digits, so
            # this command exits 2 until the program lifts the limit itself.
            cmd(f"percolation --k 2 --n 14 --p {p14}", checks.percolation, k=2, n=14, p=p14),
            cmd("curve --preset figure3", checks.curve, rows=202),
            cmd("curve --preset figure4", checks.curve, rows=101),
            cmd(f"critical --k 3 --q {q_crit}", checks.critical, k=3, q=q_crit),
            cmd("mandelbrot --n 13", checks.mandelbrot, n=13),
            cmd("asymptotic --m 40", checks.asymptotic, m=40),
        ]
    if name == "verify_battery":
        return [
            cmd("verify --scope full", checks.verify, fmt="text"),
            cmd("verify --scope quick", checks.verify, fmt="text"),
            cmd("verify --scope full --format json", checks.verify, fmt="json"),
        ]
    raise ValueError(f"unknown workload {name!r}")


# -- environment ------------------------------------------------------------


def env_stamp() -> dict:
    """What timings depend on; records with different stamps never compare."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "int_info": list(sys.int_info),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
    }


# -- end-to-end measurement -----------------------------------------------------


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def reference_work() -> float:
    """Seconds taken by a fixed mix of big-int products, dict updates and
    Fraction arithmetic, the kinds of work treeperc does."""
    start = time.perf_counter()
    x = 7 ** 60000
    for _ in range(6):
        x * x
    d: dict[int, int] = {}
    for i in range(60000):
        d[i & 1023] = d.get(i & 1023, 0) + i * i
    acc, p = Fraction(0), Fraction(13, 47)
    for c in range(300):
        acc = acc * p + c
    return time.perf_counter() - start


def launch(argv: tuple[str, ...]) -> dict:
    """Run one CLI command with stdout and stderr in files; per-process
    rusage comes from wait4, so each command reports its own peak RSS.
    ``slowdown`` is the reference work's time around the launch over
    REFERENCE_S."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    before = reference_work()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "treeperc.cli", *argv], cwd=ROOT,
                                env=_child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = reference_work()
    return {
        "slowdown": (before + after) / (2 * REFERENCE_S),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


class Checker:
    """Checks each distinct (command, artifact) once; identical bytes get
    the verdict already reached for them."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, str], str | None] = {}

    def __call__(self, command: Command, exit_code: int, stdout: bytes, stderr: str) -> dict:
        sha = hashlib.sha256(stdout).hexdigest()
        key = (command.line, sha)
        if stdout and key not in self.verdicts:
            try:
                self.verdicts[key] = command.check(stdout.decode("utf-8"))
            except Exception as exc:  # a malformed artifact fails its check
                self.verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        problem = self.verdicts.get(key) if stdout else None
        if exit_code != 0:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            reason = f"exit {exit_code}: {last}"
        else:
            reason = problem if stdout else "empty artifact"
        return {"sha256": sha, "failed": reason, "incorrect": problem is not None,
                "stderr": stderr if exit_code else ""}


def measure_setup() -> list[dict]:
    launch(NOOP)  # compile bytecode and fill the file cache first
    samples = []
    for _ in range(SETUP_LAUNCHES):
        sample = launch(NOOP)
        if sample["exit"] != 0:
            raise RuntimeError(f"no-op launch exited {sample['exit']}: {sample['stderr']}")
        samples.append(sample)
    return samples


def measure_passes(commands: list[Command], seconds: int, check: Checker) -> list[list[dict]]:
    passes: list[list[dict]] = []
    walls: list[float] = []
    while not passes or sum(walls) + statistics.median(walls) <= seconds:
        samples = []
        for command in commands:
            sample = launch(command.argv)
            sample.update(check(command, sample["exit"], sample.pop("stdout"), sample["stderr"]))
            samples.append(sample)
        passes.append(samples)
        walls.append(sum(s["wall_s"] for s in samples))
    return passes


def end_to_end(commands: list[Command], seconds: int,
               check: Checker) -> tuple[dict, list, dict, dict]:
    setup = measure_setup()
    passes = measure_passes(commands, seconds, check)
    values = {
        "wall_s": statistics.median(sum(s["wall_s"] / s["slowdown"] for s in p) for p in passes),
        "cpu_s": statistics.median(sum(s["cpu_s"] / s["slowdown"] for s in p) for p in passes),
        "peak_rss_mib": statistics.median(max(s["peak_rss_mib"] for s in p) for p in passes),
        "setup_s": statistics.median(s["wall_s"] / s["slowdown"] for s in setup),
        "raw_wall_s": statistics.median(sum(s["wall_s"] for s in p) for p in passes),
        "raw_cpu_s": statistics.median(sum(s["cpu_s"] for s in p) for p in passes),
        "raw_setup_s": statistics.median(s["wall_s"] for s in setup),
        "slowdown": statistics.median(s["slowdown"] for p in passes for s in p),
    }
    counts = {name: len(passes) for name in values}
    counts["setup_s"] = counts["raw_setup_s"] = len(setup)
    launches = [{k: s[k] for k in ("wall_s", "slowdown")} for s in setup]
    return values, passes, counts, {"setup_launches": launches}


# -- traced run -----------------------------------------------------------------


def traced(commands: list[Command], workload: str, seconds: int,
           check: Checker) -> tuple[dict, list, dict, dict]:
    spec = WORK / "trace-spec.json"
    result_path = WORK / "trace-result.json"
    spec.write_text(json.dumps({"commands": [list(c.argv) for c in commands],
                                "seconds": seconds, "workload": workload}))
    tracer = Path(__file__).resolve().parent / "tracer.py"
    with open(WORK / "tracer.log", "wb") as log:
        proc = subprocess.run([sys.executable, str(tracer), str(spec), str(result_path)],
                              cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"tracer exited {proc.returncode}; see {WORK / 'tracer.log'}")
    result = json.loads(result_path.read_text())
    passes = []
    for run in result["passes"]:
        samples = []
        for command, sample in zip(commands, run["commands"]):
            artifact = (WORK / sample.pop("artifact")).read_bytes()
            sample.update(check(command, sample["exit"], artifact, sample["stderr"]))
            samples.append(sample)
        passes.append(samples)
    layered = [run["layers"] for run in result["passes"] if run["traced"]]
    values = {name: statistics.median(layers[name] for layers in layered)
              for name in layered[0]}
    plain = [run["wall_s"] for run in result["passes"] if not run["traced"]]
    values["trace_overhead_ratio"] = (
        statistics.median(run["wall_s"] for run in result["passes"] if run["traced"])
        / statistics.median(plain))
    counts = {name: len(layered) for name in values}
    return values, passes, counts, {"self_s": result["self_s"], "spans": result["spans"]}


# -- reporting ------------------------------------------------------------------


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(args, env: dict, commands: list[Command], values: dict, passes: list,
           counts: dict, extra: dict) -> dict:
    samples = [s for p in passes for s in p]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["failed"])
    correct = not any(s["incorrect"] for s in samples)
    metrics, missing = {}, []
    for spec in declared_metrics(args.trace):
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        else:
            missing.append(spec["name"])

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{len(passes)} passes of {len(commands)} commands, one client, closed loop")
    for i, command in enumerate(commands):
        runs = [p[i] for p in passes]
        walls = ", ".join(f"{s['wall_s']:.3f}" for s in runs)
        status = runs[-1]["failed"] or "ok"
        print(f"  {command.line}: wall [{walls}] s, exit {runs[-1]['exit']}, {status}, "
              f"sha256 {runs[-1]['sha256'][:16]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (median of {counts.get(name, 1)})")
    for name in values.keys() - metrics.keys():
        print(f"  ({name} = {values[name]:.6g}, median of {counts.get(name, 1)})")
    if missing:
        print("  missing: " + ", ".join(missing))
    top = sorted(extra.get("self_s", {}).items(), key=lambda kv: -kv[1])[:8]
    if top:
        print("  self time: " + ", ".join(f"{name} {s:.3f} s" for name, s in top))
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} commands)")
    for s in samples:
        if s["stderr"]:
            print("  stderr of failed command: " + s["stderr"].strip().splitlines()[-1])
            break

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "commands": [
            {"argv": list(c.argv),
             "samples": [{k: p[i][k] for k in SAMPLE_KEYS if k in p[i]} for p in passes],
             "sha256": sorted({p[i]["sha256"] for p in passes}),
             "failed": sorted({p[i]["failed"] for p in passes if p[i]["failed"]}),
             "stderr": sorted({p[i]["stderr"] for p in passes if p[i]["stderr"]})}
            for i, c in enumerate(commands)
        ],
        "metrics": metrics, "values": values, "samples": counts, "missing": missing,
        "attempted": attempted, "failed": failed, "correct": correct, **extra,
    }
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"  record: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["env"] != b["env"]:
        diff = sorted(k for k in a["env"].keys() | b["env"].keys()
                      if a["env"].get(k) != b["env"].get(k))
        print(f"refusing to compare: environments differ in {', '.join(diff)}", file=sys.stderr)
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare: different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"{a['workload']}: A = {path_a}, B = {path_b}")
    for name in sorted(a["metrics"].keys() | b["metrics"].keys()):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        ratio = f"{vb / va:.4f}" if va and vb is not None else "-"
        print(f"  {name}: {va} -> {vb} (B/A {ratio})")
    for ca, cb in zip(a["commands"], b["commands"]):
        same = "identical" if ca["sha256"] == cb["sha256"] else "DIFFERENT"
        print(f"  artifact of {' '.join(ca['argv'])}: {same}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "treeperc" / "cli.py").is_file():
        print(f"no treeperc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = env_stamp()
    sys.path.insert(0, str(SRC))
    import checks  # needs treeperc on the path

    sys.set_int_max_str_digits(0)  # the checker parses exact artifacts of any size
    WORK.mkdir(exist_ok=True)
    commands = workload_commands(args.workload, args.seed, checks)
    check = Checker()
    if args.trace:
        values, passes, counts, extra = traced(commands, args.workload, args.seconds, check)
    else:
        values, passes, counts, extra = end_to_end(commands, args.seconds, check)
    print(json.dumps(report(args, env, commands, values, passes, counts, extra)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
