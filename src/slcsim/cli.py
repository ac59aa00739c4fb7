"""Batch front end: single runs, ensembles, probe suites, config echo.

Output layout is deliberately boring: a manifest written before any
compute with status "running" and rewritten once the verb ends ("complete",
or "aborted: <the stderr line>" on exit 2), one CSV per trajectory, one JSON
with the ensemble fit, binary snapshots only when asked.  Identical (config, seed) pairs must produce
identical bytes, so nothing here records wall-clock time or hostnames.

Exit codes: 0 success, 1 a Picard window did not converge, 2 configuration,
I/O, domain or memory error, 3 a trajectory hit a non-finite field, 4 a probe
failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimConfig, parse_config_file, to_text
from .diagnostics import ensemble_energy_bound, probe_suite
from .errors import ConfigError, DomainError
from .fields import write_snapshot
from .integrators import _SERIES_KEYS, TrajectoryRecord, run_ensemble, run_trajectory

WORKERS_ENV = "SLCSIM_WORKERS"
EXIT_ITERATION_FAILED = 1
EXIT_NUMERICAL_FAILURE = 3
EXIT_PROBE_FAILED = 4


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_config(args) -> SimConfig:
    cfg = parse_config_file(args.config) if args.config else SimConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trajectories is not None:
        overrides["trajectories"] = args.trajectories
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _workers() -> int:
    """Worker processes asked for an ensemble: SLCSIM_WORKERS, default 1."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1")
    return n


def _exit_code(records: list[TrajectoryRecord]) -> int:
    statuses = {r.status for r in records}
    if "numerical_failure" in statuses:
        return EXIT_NUMERICAL_FAILURE
    if "iteration_failed" in statuses:
        return EXIT_ITERATION_FAILED
    return 0


class _Manifest:
    """``manifest.json``: written with status "running" before any compute,
    then rewritten once with how the verb ended."""

    def __init__(self) -> None:
        self.path: Path | None = None
        self.fields: dict = {}

    def write(self, out: Path, verb: str, cfg: SimConfig, outputs: list[str]) -> None:
        out.mkdir(parents=True, exist_ok=True)
        self.path = out / "manifest.json"
        self.fields = {
            "verb": verb,
            "version": __version__,
            "seed": cfg.seed,
            "trajectories": cfg.trajectories,
            "scheme": cfg.scheme,
            "config": to_text(cfg),
            "outputs": sorted(outputs),
        }
        self._dump("running")

    def finish(self, status: str) -> None:
        """Record "complete" or "aborted: <reason>"; a no-op for a verb that
        wrote no manifest."""
        if self.path is not None:
            self._dump(status)

    def _dump(self, status: str) -> None:
        with open(self.path, "w") as fh:
            json.dump({**self.fields, "status": status}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_series_csv(path: Path, rec: TrajectoryRecord) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", *_SERIES_KEYS])
        for i in range(len(rec.times)):
            w.writerow(
                [_fmt(float(rec.times[i]))]
                + [_fmt(float(rec.series[k][i])) for k in _SERIES_KEYS]
            )


def _traj_summary(rec: TrajectoryRecord) -> dict:
    summary = {
        "trajectory": rec.trajectory,
        "status": rec.status,
        "steps_completed": rec.steps_completed,
        "tau_hits": {_fmt(k): _fmt(t) for k, t in sorted(rec.tau_hits.items())},
        "windows": [
            {
                "start_time": _fmt(w.start_time),
                "iterations": w.iterations,
                "converged": w.converged,
                "min_theta": _fmt(w.min_theta),
                "distances": [_fmt(x) for x in w.distances],
                "ratios": [_fmt(x) for x in w.ratios],
            }
            for w in rec.windows
        ],
    }
    if rec.non_finite:
        summary["failure"] = {"step": rec.steps_completed, "time": _fmt(rec.terminal.t),
                              "fields": list(rec.non_finite)}
    return summary


def _snapshot_sink(out: Path, tag: str):
    def sink(step: int, state) -> None:
        write_snapshot(out / f"{tag}_step{step:08d}_v.slcf", state.grid, state.v, state.t)
        write_snapshot(out / f"{tag}_step{step:08d}_d.slcf", state.grid, state.d, state.t)

    return sink


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_run(args, manifest: _Manifest) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    manifest.write(out, "run", cfg, ["trajectory_000000.csv", "run.json"])
    rec = run_trajectory(cfg, trajectory=0,
                         snapshot_sink=_snapshot_sink(out, "trajectory_000000"))
    _write_series_csv(out / "trajectory_000000.csv", rec)
    with open(out / "run.json", "w") as fh:
        json.dump(_traj_summary(rec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trajectory 0: {rec.status} ({rec.steps_completed} steps)")
    return _exit_code([rec])


def _cmd_ensemble(args, manifest: _Manifest) -> int:
    cfg = _load_config(args)
    if cfg.snapshot_every:
        raise ConfigError("ensemble writes no snapshots; snapshot_every is for run")
    workers = _workers()
    out = Path(args.out)
    names = [f"trajectory_{i:06d}.csv" for i in range(cfg.trajectories)]
    manifest.write(out, "ensemble", cfg, names + ["summary.csv", "ensemble.json"])

    records = run_ensemble(cfg, workers)
    for rec, name in zip(records, names):
        _write_series_csv(out / name, rec)

    fit = ensemble_energy_bound(records)
    n = len(fit.times)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"mean_{k}" for k in _SERIES_KEYS])
        means = {
            k: np.mean([r.series[k][:n] for r in records], axis=0) for k in _SERIES_KEYS
        }
        for i in range(n):
            w.writerow([_fmt(float(fit.times[i]))] + [_fmt(float(means[k][i])) for k in _SERIES_KEYS])

    statuses = sorted({r.status for r in records})
    blowups = sum(1 for r in records if r.status == "stopped_at_tau")
    report = {
        "n_trajectories": cfg.trajectories,
        "seed": cfg.seed,
        "c_growth": float(fit.c_growth),
        "violation_count": fit.violation_count,
        "blowup_count": blowups,
        "statuses": statuses,
        "trajectories": [_traj_summary(r) for r in records],
    }
    with open(out / "ensemble.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"ensemble: {cfg.trajectories} trajectories, "
        f"C_growth={fit.c_growth:.6g}, blowups={blowups}"
    )
    return _exit_code(records)


def _cmd_probes(args, manifest: _Manifest) -> int:
    cfg = _load_config(args)
    if cfg.snapshot_every:
        raise ConfigError("probes writes no snapshots; snapshot_every is for run")
    out = Path(args.out)
    manifest.write(out, "probes", cfg, ["probes_report.json"])
    results = probe_suite(seed=cfg.seed, cfg=None if args.skip_contraction else cfg)
    all_passed = all(r.passed for r in results)
    payload = {
        "all_passed": all_passed,
        "probes": [
            {
                "name": r.name,
                "value": float(r.value),
                "low": float(r.low),
                "high": float(r.high),
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    with open(out / "probes_report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{mark}  {r.name} = {r.value:.6g}  (allowed [{r.low:g}, {r.high:g}])")
    return 0 if all_passed else EXIT_PROBE_FAILED


def _cmd_describe_config(args, manifest: _Manifest) -> int:
    cfg = _load_config(args)
    sys.stdout.write(to_text(cfg))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slcsim",
        description="Stochastic nematic liquid-crystal simulator and verification lab",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, with_out=True):
        sp.add_argument("--config", type=str, default=None, help="config file path")
        sp.add_argument("--seed", type=int, default=None, help="override run.seed")
        sp.add_argument(
            "--trajectories", type=int, default=None, help="override run.trajectories"
        )
        sp.add_argument(
            "--scheme", choices=("em", "picard"), default=None, help="override time.scheme"
        )
        if with_out:
            sp.add_argument("--out", type=str, default="slcsim_out", help="output directory")

    sp = sub.add_parser("run", help="integrate a single trajectory")
    common(sp)
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("ensemble", help="Monte Carlo ensemble")
    common(sp)
    sp.set_defaults(fn=_cmd_ensemble)

    sp = sub.add_parser("probes", help="operator and inequality probe suite")
    common(sp)
    sp.add_argument(
        "--skip-contraction",
        action="store_true",
        help="omit the (slower) fixed-point contraction probe",
    )
    sp.set_defaults(fn=_cmd_probes)

    sp = sub.add_parser("describe-config", help="print the resolved config")
    common(sp, with_out=False)
    sp.set_defaults(fn=_cmd_describe_config)
    return p


def _abort(manifest: _Manifest, kind: str, exc: Exception) -> int:
    """Report ``exc`` as one stderr line, whatever line boundaries its message
    carries, and record it in the manifest if the verb wrote one."""
    line = f"{kind}: {' '.join(str(exc).splitlines())}"
    print(line, file=sys.stderr)
    try:
        manifest.finish(f"aborted: {line}")
    except OSError:
        pass  # the stderr line already says why the verb stopped
    return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    manifest = _Manifest()
    try:
        code = args.fn(args, manifest)
        manifest.finish("complete")
        return code
    except ConfigError as exc:
        return _abort(manifest, "configuration error", exc)
    except OSError as exc:
        return _abort(manifest, "i/o error", exc)
    except DomainError as exc:
        return _abort(manifest, "domain error", exc)
    except MemoryError as exc:
        return _abort(manifest, "memory error", exc)


if __name__ == "__main__":
    raise SystemExit(main())
