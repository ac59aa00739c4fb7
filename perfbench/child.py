"""Measured processes, each started by run.py in a fresh interpreter.

    python3 child.py setup ROOT VERB CONFIG SEED
        time the set-up the CLI verb does before its first step: import
        slcsim.cli -> load the config, and for `run`/`ensemble` also build
        the Grid and the OperatorCache -> sample trajectory 0's path (the
        probe suite builds its own grids inside the measured work);
        print {"setup_s": ...}

    python3 child.py drive ROOT SPEC RESULT
        call slcsim.cli.main in this process: the timed loop, then the
        planned untimed (and maybe traced) calls; write their wall times,
        exit codes, output digests and traces, and the timed calls' peak
        RSS, to RESULT
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def _use_checkout(root: str) -> Path:
    """Put ROOT/src first on the import path; return it."""
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    return src


def _verify_import(src: Path) -> None:
    import slcsim

    if Path(slcsim.__file__).resolve().parent != src / "slcsim":
        raise SystemExit(f"slcsim imported from {slcsim.__file__}, not from {src}")


def setup(root: str, verb: str, config: str, seed: str) -> None:
    src = _use_checkout(root)
    t0 = time.perf_counter()
    import dataclasses

    import slcsim.cli  # noqa: F401  every verb runs from here
    from slcsim.config import parse_config_file
    from slcsim.noise import sample_path
    from slcsim.operators import OperatorCache

    cfg = dataclasses.replace(parse_config_file(config), seed=int(seed))
    if verb != "probes":
        grid = cfg.grid()
        OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
        sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    elapsed = time.perf_counter() - t0
    _verify_import(src)
    print(json.dumps({"setup_s": elapsed}))


def _call(argv: list[str], out: Path, workers: int, tracer=None) -> dict:
    import slcsim.cli
    from checks import digest

    shutil.rmtree(out, ignore_errors=True)
    os.environ["SLCSIM_WORKERS"] = str(workers)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        code = slcsim.cli.main(argv)  # looked up now, so a traced main is called
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    dig, size = digest(out)
    return {"workers": workers, "traced": tracer is not None, "wall_s": wall,
            "exit": code, "digest": dig, "bytes": size}


def drive(root: str, spec_path: str, result_path: str) -> None:
    _verify_import(_use_checkout(root))
    from tracer import Tracer

    spec = json.loads(Path(spec_path).read_text())
    argv, out = spec["argv"], Path(spec["out"])
    calls = []
    loop = spec.get("loop")
    if loop:
        t_end = time.perf_counter() + loop["seconds"]
        while True:
            calls.append(_call(argv, out, loop["workers"]) | {"timed": True})
            if time.perf_counter() >= t_end:
                break
    # the peak so far is that of the timed calls alone
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    traces = []
    for step in spec["plan"]:
        tracer = Tracer() if step["traced"] else None
        calls.append(_call(argv, out, step["workers"], tracer) | {"timed": False})
        if tracer is not None:
            traces.append({name: vars(st) for name, st in tracer.stats.items()}
                          | {"picard.sweeps": tracer.picard_sweeps})
    Path(result_path).write_text(json.dumps(
        {"calls": calls, "traces": traces, "peak_rss_kib": peak_kib}))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    verb, *rest = sys.argv[1:]
    {"setup": setup, "drive": drive}[verb](*rest)
