"""Oracles for the outputs of one CLI call, computed apart from slcsim.

Nothing here imports slcsim or compares against stored output.  Every check
is either a closed form (the config sets |d0| = 0.9 on the unit box, which
gives l2_d(0) = 0.9), an identity the columns must satisfy by definition, or
a property the method must have (the director maximum principle, a
non-increasing damping weight, converged Picard windows).

Failures are counted from what the outputs say, never from exit codes:
`slcsim probes` exits 0 when a probe fails, and `run`/`ensemble` exit 0 on
`numerical_failure`.  A failed operation (a trajectory that did not
complete, a Picard window that did not converge, a probe that did not pass)
is counted in `failed`; every other mismatch is a problem that makes the
run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DIRECTOR_AMPLITUDE, DT, LENGTHS, MAX_ITERATIONS, PROBE_NAMES, Workload

SERIES_KEYS = (
    "l2_v", "l2_d", "a_half_v", "a_v", "h2_d", "lap_d", "x1_d", "grad_d",
    "v_norm", "e_norm", "blowup", "energy_q", "max_gap", "psi", "phi_weight",
    "gl_energy",
)
REL_TOL = 1e-12  # roundoff allowance for identities between printed doubles
MAX_GAP = 1e-6  # director maximum principle: cell sum of ((|d|^2 - 1)_+)^2
L2_D0 = DIRECTOR_AMPLITUDE * math.sqrt(math.prod(LENGTHS))  # closed-form l2_d(0)


@dataclass
class Verdict:
    """What one call's outputs say: operations, failures, problems, work done."""

    attempted: int = 0
    failed: int = 0
    nodes: int = 0  # accepted time nodes summed over trajectories
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def digest(out_dir: Path) -> tuple[str, int]:
    """(sha256 over every output file's name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            total += len(data)
    return h.hexdigest(), total


def check_outputs(wl: Workload, out_dir: Path, seed: int) -> Verdict:
    v = Verdict()
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        v.require(manifest["verb"] == wl.verb, f"manifest verb {manifest['verb']!r}")
        v.require(manifest["seed"] == seed, f"manifest seed {manifest['seed']} != {seed}")
        for name in manifest["outputs"]:
            v.require((out_dir / name).is_file(), f"listed output {name} missing")
        {"ensemble": _check_ensemble, "run": _check_picard, "probes": _check_probes}[
            wl.verb
        ](wl, out_dir, v)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        v.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return v


# ---------------------------------------------------------------------------
# per-trajectory series
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def read_series(path: Path) -> tuple[list[float], dict[str, list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", *SERIES_KEYS]:
        raise ValueError(f"{path.name}: header {rows[0]}")
    cols = list(zip(*[[float(x) for x in r] for r in rows[1:]]))
    return list(cols[0]), {k: list(c) for k, c in zip(SERIES_KEYS, cols[1:])}


def _expected_times(wl: Workload) -> list[float]:
    nodes = [j for j in range(0, wl.n_steps + 1) if j % wl.record_every == 0]
    if nodes[-1] != wl.n_steps:
        nodes.append(wl.n_steps)
    return [j * DT for j in nodes]


def _check_series(wl: Workload, path: Path, v: Verdict) -> None:
    times, s = read_series(path)
    tag = path.name
    expected = _expected_times(wl)
    v.require(len(times) == len(expected), f"{tag}: {len(times)} rows, expected {len(expected)}")
    v.require(all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
                  for a, b in zip(times, expected)), f"{tag}: recorded times off the grid")
    v.require(math.isclose(times[-1], wl.n_steps * DT, rel_tol=1e-9),
              f"{tag}: last time {times[-1]!r} != n_steps * dt")
    # |d0| = a on every cell, so |d0|_{L2} = a * sqrt(area): a on the unit box
    v.require(_close(s["l2_d"][0], L2_D0),
              f"{tag}: l2_d(0) = {s['l2_d'][0]!r}, expected {L2_D0!r}")
    for i in range(len(times)):
        a_half, lap, h2, a_v, x1 = (s[k][i] for k in ("a_half_v", "lap_d", "h2_d", "a_v", "x1_d"))
        v.require(_close(s["blowup"][i], a_half + lap), f"{tag} row {i}: blowup != a_half_v + lap_d")
        v.require(_close(s["v_norm"][i] ** 2, a_half**2 + h2**2),
                  f"{tag} row {i}: v_norm^2 != a_half_v^2 + h2_d^2")
        v.require(_close(s["e_norm"][i] ** 2, a_v**2 + x1**2),
                  f"{tag} row {i}: e_norm^2 != a_v^2 + x1_d^2")
        v.require(0.0 <= s["max_gap"][i] <= MAX_GAP, f"{tag} row {i}: max_gap {s['max_gap'][i]!r}")
        w = s["phi_weight"][i]
        v.require(0.0 < w <= 1.0, f"{tag} row {i}: phi_weight {w!r} outside (0, 1]")
        if i:
            v.require(w <= s["phi_weight"][i - 1], f"{tag} row {i}: phi_weight increased")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _check_ensemble(wl: Workload, out: Path, v: Verdict) -> None:
    report = json.loads((out / "ensemble.json").read_text())
    trajs = report["trajectories"]
    v.require(report["n_trajectories"] == wl.trajectories == len(trajs),
              f"{len(trajs)} trajectories reported, expected {wl.trajectories}")
    v.require(report["violation_count"] == 0, f"violation_count {report['violation_count']}")
    series = []
    for t in trajs:
        v.attempted += 1
        v.nodes += t["steps_completed"]
        path = out / f"trajectory_{t['trajectory']:06d}.csv"
        series.append(read_series(path))
        if t["status"] != "completed" or t["tau_hits"] or t["steps_completed"] != wl.n_steps:
            v.failed += 1
            continue
        _check_series(wl, path, v)
    v.require(report["blowup_count"] == sum(t["status"] == "stopped_at_tau" for t in trajs),
              "blowup_count disagrees with the statuses")
    _check_summary(out / "summary.csv", series, v)


def _check_summary(path: Path, series, v: Verdict) -> None:
    """summary.csv must hold the per-column means over the common time range."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    v.require(rows[0] == ["t"] + [f"mean_{k}" for k in SERIES_KEYS], "summary.csv header")
    n = min(len(times) for times, _ in series)
    v.require(len(rows) - 1 == n, f"summary.csv has {len(rows) - 1} rows, expected {n}")
    for i, row in enumerate(rows[1 : n + 1]):
        vals = [float(x) for x in row]
        v.require(vals[0] == series[0][0][i], f"summary.csv row {i}: t")
        for k, got in zip(SERIES_KEYS, vals[1:]):
            mean = sum(s[k][i] for _, s in series) / len(series)
            v.require(_close(got, mean) or (math.isnan(got) and math.isnan(mean)),
                      f"summary.csv row {i}: mean_{k} {got!r} != {mean!r}")


def _check_picard(wl: Workload, out: Path, v: Verdict) -> None:
    report = json.loads((out / "run.json").read_text())
    expected = -(-wl.n_steps // wl.window_steps)
    good = [
        w for w in report["windows"]
        if w["converged"] is True and 1 <= w["iterations"] <= MAX_ITERATIONS
        and float(w["min_theta"]) == 1.0
    ]
    v.attempted += expected
    v.failed += expected - len(good)
    if report["status"] != "completed" and len(good) == expected:
        v.failed += 1  # e.g. a non-finite node inside a converged window
    v.nodes += report["steps_completed"]
    v.require(len(report["windows"]) <= expected, f"{len(report['windows'])} windows")
    v.require(all(math.isclose(float(w["start_time"]), j * wl.window_steps * DT,
                               rel_tol=1e-9, abs_tol=1e-15)
                  for j, w in enumerate(report["windows"])),
              "window start times off the window grid")
    if report["status"] == "completed":
        v.require(report["steps_completed"] == wl.n_steps, "completed run short of n_steps")
        v.require(not report["tau_hits"], f"tau hits {report['tau_hits']}")
        _check_series(wl, out / "trajectory_000000.csv", v)


def _check_probes(wl: Workload, out: Path, v: Verdict) -> None:
    report = json.loads((out / "probes_report.json").read_text())
    by_name = {p["name"]: p for p in report["probes"]}
    v.require(sorted(by_name) == sorted(PROBE_NAMES), f"probe set {sorted(by_name)}")
    for name in PROBE_NAMES:
        v.attempted += 1
        p = by_name.get(name)
        if p is None or p["passed"] is not True:
            v.failed += 1
            continue
        v.require(p["low"] <= p["value"] <= p["high"],
                  f"{name} reported passed with {p['value']!r} outside [{p['low']}, {p['high']}]")
    v.require(report["all_passed"] is all(p["passed"] is True for p in report["probes"]),
              "all_passed disagrees with the probes")
