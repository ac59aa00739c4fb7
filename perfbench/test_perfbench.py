"""Tests of the benchmark itself: each oracle rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import check_outputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DIRECTOR_AMPLITUDE, DT, LENGTHS, MAX_ITERATIONS, PROBE_NAMES, workloads,
)

SEED = 3


def _produce(tmp_path_factory, name: str) -> Path:
    import slcsim.cli

    wl = workloads(quick=True)[name]
    base = tmp_path_factory.mktemp(name)
    config = base / "run.ini"
    config.write_text(wl.config_text())
    out = base / "out"
    os.environ.pop("SLCSIM_WORKERS", None)
    assert slcsim.cli.main(wl.argv(str(config), str(out), SEED)) == 0
    return out


EM, PICARD, PROBES = "ensemble-em-64", "picard-64", "probes"
SERIES = pytest.mark.parametrize("name", [EM, PICARD])


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Real outputs of each workload's call at toy size, made once per module."""
    made = {}

    def get(name: str) -> Path:
        if name not in made:
            made[name] = _produce(tmp_path_factory, name)
        return made[name]

    return get


@pytest.fixture
def fresh(clean, tmp_path):
    """A private copy of one workload's clean outputs, free to corrupt."""

    def copy(name: str):
        dst = tmp_path / name
        shutil.copytree(clean(name), dst)
        return workloads(quick=True)[name], dst

    return copy


def _edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, row: int, col: str, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(col)
    rows[row][j] = repr(fn(float(rows[row][j])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("name, ops", [(EM, 2), (PICARD, 2), (PROBES, len(PROBE_NAMES))])
def test_clean_outputs_pass(fresh, name, ops):
    wl, out = fresh(name)
    v = check_outputs(wl, out, SEED)
    assert v.problems == [] and v.failed == 0 and v.attempted == ops
    assert v.nodes == (0 if wl.verb == "probes" else wl.n_steps * wl.trajectories)


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("name", [EM, PICARD])
def test_config_sets_every_input_the_oracles_assume(name, quick):
    from slcsim.config import parse_config

    wl = workloads(quick=quick)[name]
    cfg = parse_config(wl.config_text())
    assert (cfg.dt, cfg.lengths, cfg.director_amplitude, cfg.max_iterations) == (
        DT, LENGTHS, DIRECTOR_AMPLITUDE, MAX_ITERATIONS)
    assert (cfg.cells, cfg.n_steps, cfg.record_every, cfg.scheme) == (
        (wl.cells, wl.cells), wl.n_steps, wl.record_every, wl.scheme)
    if wl.window_steps:
        assert cfg.window == wl.window_steps * DT


@pytest.mark.parametrize("name", [EM, PICARD, PROBES])
def test_wrong_seed_in_manifest_is_a_problem(fresh, name):
    wl, out = fresh(name)
    assert check_outputs(wl, out, SEED + 1).problems


@pytest.mark.parametrize("name, victim", [(EM, "summary.csv"), (PICARD, "run.json"),
                                          (PROBES, "probes_report.json")])
def test_missing_output_is_a_problem(fresh, name, victim):
    wl, out = fresh(name)
    (out / victim).unlink()
    assert check_outputs(wl, out, SEED).problems


# ---------------------------------------------------------------------------
# failures are read from the outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, report, flip", [
    (EM, "ensemble.json", lambda r: r["trajectories"][1].update(status="numerical_failure")),
    (PICARD, "run.json", lambda r: r.update(status="numerical_failure")),
])
def test_flipped_trajectory_status_counts_as_failed(fresh, name, report, flip):
    wl, out = fresh(name)
    _edit_json(out / report, flip)
    v = check_outputs(wl, out, SEED)
    assert v.failed == 1 and v.problems == []


def test_tau_hit_counts_as_failed(fresh):
    wl, out = fresh(EM)
    _edit_json(out / "ensemble.json",
               lambda r: r["trajectories"][0]["tau_hits"].update({"1000": "0.01"}))
    assert check_outputs(wl, out, SEED).failed == 1


@pytest.mark.parametrize("field, value", [("converged", False), ("min_theta", "0.5"),
                                          ("iterations", 61)])
def test_bad_picard_window_counts_as_failed(fresh, field, value):
    wl, out = fresh(PICARD)
    _edit_json(out / "run.json", lambda r: r["windows"][0].update({field: value}))
    assert check_outputs(wl, out, SEED).failed == 1


def test_failed_probe_counts_as_failed(fresh):
    wl, out = fresh(PROBES)

    def fail_one(r):
        r["probes"][4].update(passed=False, value=r["probes"][4]["high"] * 2)
        r["all_passed"] = False

    _edit_json(out / "probes_report.json", fail_one)
    v = check_outputs(wl, out, SEED)
    assert v.failed == 1 and v.problems == []


def test_missing_probe_counts_as_failed(fresh):
    wl, out = fresh(PROBES)
    _edit_json(out / "probes_report.json", lambda r: r["probes"].pop(0))
    v = check_outputs(wl, out, SEED)
    assert v.failed == 1 and v.problems


def test_probe_passed_out_of_range_is_a_problem(fresh):
    wl, out = fresh(PROBES)
    _edit_json(out / "probes_report.json",
               lambda r: r["probes"][0].update(value=r["probes"][0]["high"] + 1.0))
    assert check_outputs(wl, out, SEED).problems


# ---------------------------------------------------------------------------
# corrupted series
# ---------------------------------------------------------------------------

@SERIES
@pytest.mark.parametrize("row, col, fn", [
    (3, "blowup", lambda x: x * (1 + 1e-9)),        # blowup = a_half_v + lap_d
    (2, "h2_d", lambda x: x * (1 + 1e-9)),          # v_norm^2 = a_half_v^2 + h2_d^2
    (2, "x1_d", lambda x: x * (1 + 1e-9)),          # e_norm^2 = a_v^2 + x1_d^2
    (1, "l2_d", lambda x: x * (1 + 1e-9)),          # l2_d(0) = 0.9
    (2, "max_gap", lambda x: 2e-6),                 # maximum principle
    (3, "phi_weight", lambda x: 1.5),               # phi_weight in (0, 1]
    (3, "t", lambda x: x + 0.5),                    # times on the step grid
])
def test_perturbed_series_cell_is_a_problem(fresh, name, row, col, fn):
    wl, out = fresh(name)
    _edit_csv(out / "trajectory_000000.csv", row, col, fn)
    assert check_outputs(wl, out, SEED).problems


@SERIES
def test_increasing_phi_weight_is_a_problem(fresh, name):
    wl, out = fresh(name)
    with open(out / "trajectory_000000.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    before = float(rows[2][rows[0].index("phi_weight")])
    _edit_csv(out / "trajectory_000000.csv", 3, "phi_weight", lambda x: before * (1 + 1e-12))
    assert check_outputs(wl, out, SEED).problems


def test_perturbed_summary_mean_is_a_problem(fresh):
    wl, out = fresh(EM)
    _edit_csv(out / "summary.csv", 2, "mean_energy_q", lambda x: x * (1 + 1e-9))
    assert check_outputs(wl, out, SEED).problems


def test_nonzero_violation_count_is_a_problem(fresh):
    wl, out = fresh(EM)
    _edit_json(out / "ensemble.json", lambda r: r.update(violation_count=1))
    assert check_outputs(wl, out, SEED).problems


# ---------------------------------------------------------------------------
# tracer and harness
# ---------------------------------------------------------------------------

def test_tracer_counts_self_time_and_restores_everything():
    import slcsim.integrators as integ
    import slcsim.operators as ops
    from slcsim.grid import Grid, build_grid

    originals = (ops.leray_project, integ.leray_project, Grid.spectrum)
    grid = build_grid(2, (16, 16), (1.0, 1.0))
    tracer = Tracer()
    tracer.install()
    try:
        assert integ.leray_project is ops.leray_project is not originals[0]
        import numpy as np

        ops.leray_project(grid, np.ones((2, 16, 16)))
    finally:
        tracer.uninstall()
    assert (ops.leray_project, integ.leray_project, Grid.spectrum) == originals
    st = tracer.stats
    assert st["operators.leray_project"].calls == 1
    assert st["grid.centered_diff"].calls == 2 + 2  # divergence, then gradient
    lp = st["operators.leray_project"]
    children = sum(st[n].total_s for n in ("grid.centered_diff", "grid.transform",
                                           "grid.spectrum"))
    assert lp.self_s == pytest.approx(lp.total_s - children, abs=1e-9)


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_quick_mode_runs_every_workload_with_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if '"correct"' in line]
    assert len(results) == 2 * len(workloads(quick=True))
    assert all(r["correct"] and r["failed"] == 0 for r in results)


# ---------------------------------------------------------------------------
# a faulty program is reported by the whole run
# ---------------------------------------------------------------------------

def _faulty_checkout(tmp_path: Path, old: str, new: str) -> Path:
    """A copy of the checkout whose cli.py has OLD replaced by NEW."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "slcsim" / "cli.py"
    text = cli.read_text()
    assert old in text
    cli.write_text(text.replace(old, new))
    return tmp_path


def _quick_run(checkout: Path, workload: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--quick", "--workload", workload,
                           "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_counts_a_trajectory_the_program_marks_failed(tmp_path):
    checkout = _faulty_checkout(
        tmp_path, '"status": rec.status,',
        '"status": "numerical_failure" if rec.trajectory == 1 else rec.status,')
    code, res = _quick_run(checkout, EM)
    assert code == 0 and res["correct"] is True
    assert res["failed"] > 0 and res["failed"] * 2 == res["attempted"]


def test_run_reports_a_wrong_summary_as_incorrect(tmp_path):
    checkout = _faulty_checkout(
        tmp_path, "axis=0) for k in _SERIES_KEYS", "axis=0) * (1 + 1e-9) for k in _SERIES_KEYS")
    code, res = _quick_run(checkout, EM)
    assert code == 1 and res["correct"] is False
