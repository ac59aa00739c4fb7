"""slcsim benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload ensemble-em-64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick     # every workload at toy size, both modes

With --trace 0 the run times set-up in fresh interpreters, then repeats
the workload's CLI call for --seconds and reports the end-to-end metrics.
With --trace 1 it makes two untraced calls and two traced calls of the
same size and reports the per-layer metrics.  Either way every output is
checked (checks.py), and the last line of stdout is {"correct",
"attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from checks import check_outputs
from workloads import Workload, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7  # timed fresh-interpreter set-ups per run, after one untimed
TIME_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# (span name, derived metrics); the span names are tracer.TARGETS' names
_SPAN_METRICS = (
    ("grid.transform", ("calls", "self_s", "per_step")),
    ("grid.spectrum", ("calls", "self_s", "per_step")),
    ("grid.centered_diff", ("calls", "self_s")),
    ("fields.spectral_summary", ("calls", "self_s", "per_step")),
    ("operators.leray_project", ("calls", "self_s")),
    ("operators.ericksen_divergence", ("calls", "self_s")),
    ("operators.b1", ("self_s",)),
    ("operators.b2", ("self_s",)),
    ("operators.semigroup", ("self_s",)),
    ("operators.noise_increment", ("self_s",)),
    ("operators.assemble_L", ("self_s",)),
    ("operators.f_penalty", ("self_s",)),
    ("noise.sample_path", ("calls", "self_s")),
    ("config.parse_config_file", ("self_s",)),
    ("integrators.em_step", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("integrators.picard_solve", ("calls", "self_s")),
    ("integrators.run_trajectory", ("self_s",)),
    ("diagnostics.psi_functional", ("self_s",)),
    ("diagnostics.max_principle_gap", ("self_s",)),
    ("diagnostics.penalty_energy", ("self_s",)),
    ("diagnostics.random_smooth_scalar", ("calls", "self_s")),
    ("diagnostics.lipschitz_probe_F", ("self_s",)),
    ("diagnostics.duality_gap", ("self_s",)),
    ("diagnostics.ensemble_energy_bound", ("self_s",)),
    ("diagnostics.probe_suite", ("self_s",)),
    ("cli.main", ("self_s",)),
)
_UNITS = {"calls": "count", "self_s": "s", "per_step": "1/step", "p50_ms": "ms",
          "p99_ms": "ms"}
PER_LAYER = {f"{span}.{kind}": _UNITS[kind] for span, kinds in _SPAN_METRICS for kind in kinds}
PER_LAYER |= {
    "operators.OperatorCache.init_s": "s",
    "integrators.picard.sweeps": "count",
    "integrators.picard.sweeps_per_window": "1/window",
    "cli.output_bytes": "B",
    "cli.ensemble.parallel_efficiency": "ratio",
    "bench.trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SLCSIM_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode, as installed code does
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], deadline: float) -> str:
    """Run child.py with ARGS to completion; its whole process group dies on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], env=_child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args[0]} overran the time limit") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _environment(workers: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": THREAD_PINS,
        "slcsim_workers": workers,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    workers = min(wl.workers, len(os.sched_getaffinity(0)))
    config = work / "run.ini"
    config.write_text(wl.config_text())
    out = work / "out"
    setup_times = []
    if trace:
        # untraced at the measured worker count, untraced serial, then traced
        # serial twice; the untraced calls fill lazy caches first, so that
        # both traced calls do the same work
        plan = [(workers, False), (1, False), (1, True), (1, True)]
        loop = None
    else:
        for i in range(SETUP_REPEATS + 1):
            line = _child(["setup", str(ROOT), wl.verb, str(config), str(seed)], deadline)
            if i:  # the first one also writes the bytecode caches
                setup_times.append(json.loads(line)["setup_s"])
        # an ensemble also runs once serially, untimed, after the timed calls:
        # its bytes must equal theirs, which checks the worker-count invariant
        plan = [(1, False)] if workers > 1 else []
        loop = {"seconds": seconds, "workers": workers}
    spec = work / "spec.json"
    spec.write_text(json.dumps({
        "argv": wl.argv(str(config), str(out), seed), "out": str(out),
        "plan": [{"workers": w, "traced": t} for w, t in plan], "loop": loop,
    }))
    _child(["drive", str(ROOT), str(spec), str(work / "result.json")], deadline)
    result = json.loads((work / "result.json").read_text())
    calls = result["calls"]

    verdict = check_outputs(wl, out, seed)
    problems = list(verdict.problems)
    if len({c["digest"] for c in calls}) != 1:
        problems.append("output bytes differ between calls: " + ", ".join(
            f"{c['workers']} worker(s){' traced' if c['traced'] else ''} {c['digest'][:12]}"
            for c in calls))
    problems += [f"exit code {c['exit']}" for c in calls if c["exit"] not in (0, 1)]

    if trace:
        metrics, trace_problems = _per_layer(calls, result["traces"], verdict.nodes)
        problems += trace_problems
    else:
        wall = statistics.median(c["wall_s"] for c in calls if c["timed"])
        steps = verdict.nodes if wl.verb != "probes" else verdict.attempted
        values = {
            "wall_s": wall,
            "steps_per_s": steps / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": not problems,
        "attempted": verdict.attempted * len(calls),
        "failed": verdict.failed * len(calls),
        "metrics": metrics,
        "problems": problems,
        "calls": [{k: c[k] for k in ("workers", "traced", "timed", "wall_s", "exit")}
                  for c in calls],
        "env": _environment(workers),
    }


def _per_layer(calls: list[dict], traces: list[dict], nodes: int):
    problems = []
    first, second = traces
    for name in first:
        a, b = first[name], second[name]
        if name != "picard.sweeps":
            a, b = a["calls"], b["calls"]
        if a != b:
            problems.append(f"{name}: count {a} then {b} across traced calls")

    values = {}
    for span, kinds in _SPAN_METRICS:
        a, b = first[span], second[span]
        for kind in kinds:
            if kind == "calls":
                v = a["calls"]
            elif kind == "self_s":
                v = 0.5 * (a["self_s"] + b["self_s"])
            elif kind == "per_step":
                v = a["calls"] / nodes if nodes else 0.0
            else:
                durations = a["durations"] + b["durations"]
                q = statistics.quantiles(durations, n=100) if len(durations) > 1 else [0.0] * 99
                v = 1e3 * q[49 if kind == "p50_ms" else 98]
            values[f"{span}.{kind}"] = v
    init = [t["operators.OperatorCache.init"]["total_s"] for t in traces]
    values["operators.OperatorCache.init_s"] = 0.5 * sum(init)
    sweeps, windows = first["picard.sweeps"], first["integrators.picard_solve"]["calls"]
    values["integrators.picard.sweeps"] = sweeps
    values["integrators.picard.sweeps_per_window"] = sweeps / windows if windows else 0.0
    parallel, serial, *traced = calls
    values["cli.output_bytes"] = traced[0]["bytes"]
    values["cli.ensemble.parallel_efficiency"] = (
        serial["wall_s"] / (parallel["workers"] * parallel["wall_s"])
        if parallel["workers"] > 1 else 0.0
    )
    values["bench.trace_overhead_s"] = (
        statistics.fmean(c["wall_s"] for c in traced) - serial["wall_s"]
    )
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _one(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        return run(wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _report(res: dict) -> None:
    print(json.dumps({"env": res["env"], "calls": res["calls"]}))
    for p in res["problems"][:50]:
        print(f"PROBLEM: {p}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="toy sizes; without --workload, every workload untraced then traced")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.workload is None and not args.quick:
        p.error("--workload is required")
    if not (ROOT / "src" / "slcsim" / "__init__.py").is_file():
        print(f"no slcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = workloads(quick=args.quick)
    if args.workload is None:
        runs = [(wl, 0.5, trace) for wl in table.values() for trace in (False, True)]
    else:
        runs = [(table[args.workload], args.seconds, bool(args.trace))]
    ok = True
    try:
        for wl, seconds, trace in runs:
            res = _one(wl, args.seed, seconds, trace)
            if len(runs) > 1:
                print(f"== {wl.name} trace={int(trace)}")
            _report(res)
            ok &= res["correct"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
