"""Config round-trip and batch front-end tests.

The CLI contract under test: manifests are written before compute, identical
(config, seed) pairs produce identical bytes, worker parallelism never changes
results, every user error maps to exit code 2 instead of a traceback, and a
non-finite trajectory (3) or a failed probe (4) shows in the exit code.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import slcsim.cli
from slcsim.cli import main
from slcsim.config import SimConfig, default_config, parse_config, to_text, validate
from slcsim.diagnostics import ProbeResult
from slcsim.errors import ConfigError
from slcsim.fields import read_snapshot

SERIES_KEYS = [
    "l2_v", "l2_d", "a_half_v", "a_v", "h2_d", "lap_d", "x1_d", "grad_d",
    "v_norm", "e_norm", "blowup", "energy_q", "max_gap", "psi",
    "phi_weight", "gl_energy",
]

SMALL = """
[grid]
cells = 16 16
lengths = 1.0 1.0

[time]
horizon = 0.005

[velocity_noise]
mode_count = 8
"""


def _write_config(tmp_path: Path, text: str = SMALL) -> Path:
    p = tmp_path / "small.ini"
    p.write_text(text)
    return p


def _read_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_default_config_round_trips_through_text():
    cfg = default_config()
    assert parse_config(to_text(cfg)) == cfg


def test_customized_config_round_trips_through_text():
    cfg = dataclasses.replace(
        default_config(),
        n_dim=3, cells=(8, 8, 16), lengths=(1.0, 1.0, 2.0),
        dt=2.5e-4, scheme="picard", freeze_velocity=True,
        thresholds=(10.0, 1000.0), sigma=0.125, seed=42,
    )
    validate(cfg)
    assert parse_config(to_text(cfg)) == cfg


def test_parse_config_fills_unmentioned_keys_with_defaults():
    cfg = parse_config("[time]\ndt = 0.002\n")
    assert cfg.dt == 0.002
    assert cfg.cells == SimConfig().cells
    assert cfg.scheme == "em"


def test_parse_config_accepts_commas_and_bool_spellings():
    cfg = parse_config(
        "[grid]\ncells = 32, 32\n\n[diagnostics]\nfreeze_velocity = yes\n"
        "director_diffusion = 0\n"
    )
    assert cfg.cells == (32, 32)
    assert cfg.freeze_velocity is True
    assert cfg.director_diffusion is False


def test_parse_config_aggregates_all_problems_in_one_error():
    text = (
        "[nosuchsection]\nx = 1\n\n"
        "[time]\ndt = notanumber\n\n"
        "[grid]\nflux = 3\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "unknown section [nosuchsection]" in msg
    assert "cannot parse 'notanumber'" in msg
    assert "unknown key 'flux'" in msg


def test_validate_aggregates_constraint_violations():
    cfg = dataclasses.replace(default_config(), dt=-1.0, scheme="verlet",
                              thresholds=(100.0, 10.0))
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    msg = str(err.value)
    assert "dt must be positive" in msg
    assert "scheme must be em or picard" in msg
    assert "thresholds must be ascending" in msg


def test_parse_config_rejects_broken_syntax():
    with pytest.raises(ConfigError):
        parse_config("this is not ini\n")


# ---------------------------------------------------------------------------
# run verb
# ---------------------------------------------------------------------------

def test_run_writes_manifest_series_and_summary(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verb"] == "run"
    assert manifest["outputs"] == ["run.json", "trajectory_000000.csv"]
    assert "[grid]" in manifest["config"]

    rows = (out / "trajectory_000000.csv").read_text().splitlines()
    assert rows[0].split(",") == ["t", *SERIES_KEYS]
    assert len(rows) == 1 + 6            # header + initial row + 5 steps

    summary = json.loads((out / "run.json").read_text())
    assert summary["status"] == "completed"
    assert summary["steps_completed"] == 5
    assert "trajectory 0: completed" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert _read_bytes(out_a) == _read_bytes(out_b)


def test_run_seed_override_changes_the_noise(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg_path), "--seed", "1", "--out", str(out_a)])
    main(["run", "--config", str(cfg_path), "--seed", "2", "--out", str(out_b)])
    a = (out_a / "trajectory_000000.csv").read_bytes()
    b = (out_b / "trajectory_000000.csv").read_bytes()
    assert a != b


def test_run_writes_readable_snapshots_at_cadence(tmp_path):
    text = SMALL + "\n[output]\nsave_snapshots = true\nsnapshot_every = 2\n"
    cfg_path = _write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    steps = sorted(int(p.name.split("step")[1][:8]) for p in out.glob("*_v.slcf"))
    assert steps == [0, 2, 4]
    meta, field = read_snapshot(out / "trajectory_000000_step00000004_v.slcf")
    assert field.shape == (2, 16, 16)
    assert meta.time == pytest.approx(0.004)
    assert meta.cells == (16, 16)


# ---------------------------------------------------------------------------
# ensemble verb
# ---------------------------------------------------------------------------

def test_ensemble_writes_summary_and_fit(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["ensemble", "--config", str(cfg_path), "--trajectories", "2",
                 "--out", str(out)])
    assert code == 0
    assert (out / "trajectory_000000.csv").exists()
    assert (out / "trajectory_000001.csv").exists()

    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0].split(",") == ["t"] + [f"mean_{k}" for k in SERIES_KEYS]
    assert len(rows) == 1 + 6

    report = json.loads((out / "ensemble.json").read_text())
    assert report["n_trajectories"] == 2
    assert report["statuses"] == ["completed"]
    assert isinstance(report["c_growth"], float)
    assert report["violation_count"] == 0
    assert len(report["trajectories"]) == 2


def test_ensemble_worker_count_never_changes_bytes(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path)
    out_serial, out_par = tmp_path / "serial", tmp_path / "par"
    monkeypatch.delenv("SLCSIM_WORKERS", raising=False)
    main(["ensemble", "--config", str(cfg_path), "--trajectories", "2",
          "--out", str(out_serial)])
    monkeypatch.setenv("SLCSIM_WORKERS", "2")
    main(["ensemble", "--config", str(cfg_path), "--trajectories", "2",
          "--out", str(out_par)])
    assert _read_bytes(out_serial) == _read_bytes(out_par)


def test_worker_count_is_capped_by_trajectories_and_cpus(monkeypatch):
    # _workers only computes the count; no process is started here
    monkeypatch.setattr(slcsim.cli.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("SLCSIM_WORKERS", "64")
    assert slcsim.cli._workers(8) == 3
    assert slcsim.cli._workers(2) == 2
    monkeypatch.setenv("SLCSIM_WORKERS", "1")
    assert slcsim.cli._workers(8) == 1
    monkeypatch.setattr(slcsim.cli.os, "cpu_count", lambda: None)
    monkeypatch.setenv("SLCSIM_WORKERS", "4")
    assert slcsim.cli._workers(8) == 1


@pytest.mark.parametrize("raw", ["notanint", "0", "-3"])
def test_ensemble_rejects_bad_worker_env(tmp_path, monkeypatch, capsys, raw):
    cfg_path = _write_config(tmp_path)
    monkeypatch.setenv("SLCSIM_WORKERS", raw)
    code = main(["ensemble", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "SLCSIM_WORKERS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probes and describe-config verbs
# ---------------------------------------------------------------------------

def test_probes_verb_reports_all_passed(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["probes", "--skip-contraction", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "probes_report.json").read_text())
    assert report["all_passed"] is True
    names = {p["name"] for p in report["probes"]}
    assert "duality_order" in names and "contraction_slope" not in names
    for p in report["probes"]:
        assert isinstance(p["value"], float)
    assert "pass  duality_order" in capsys.readouterr().out


def test_probes_verb_exits_four_when_a_probe_fails(tmp_path, monkeypatch, capsys):
    def failing(**kwargs):
        return [ProbeResult("b1_skew_symmetry", 2.0, 0.0, 1.0, False)]

    monkeypatch.setattr(slcsim.cli, "probe_suite", failing)
    out = tmp_path / "out"
    assert main(["probes", "--skip-contraction", "--out", str(out)]) == 4
    assert json.loads((out / "probes_report.json").read_text())["all_passed"] is False
    assert "FAIL  b1_skew_symmetry" in capsys.readouterr().out


UNSTABLE = """
[grid]
cells = 16 16
lengths = 1.0 1.0

[time]
dt = 1.0
horizon = 30.0

[velocity_noise]
mode_count = 8

[initial]
velocity_amplitude = 10000.0

[stopping]
thresholds = inf
"""


def test_non_finite_trajectories_exit_three(tmp_path):
    # explicit advection at amplitude 1e4 with dt = 1 overflows within ~10 steps
    cfg_path = _write_config(tmp_path, UNSTABLE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            code_run = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
            code_ens = main(["ensemble", "--config", str(cfg_path), "--trajectories", "2",
                             "--out", str(tmp_path / "e")])
    assert code_run == 3
    assert json.loads((tmp_path / "r" / "run.json").read_text())["status"] == "numerical_failure"
    assert code_ens == 3
    report = json.loads((tmp_path / "e" / "ensemble.json").read_text())
    assert report["statuses"] == ["numerical_failure"]


def test_describe_config_output_parses_back(capsys):
    assert main(["describe-config", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg == dataclasses.replace(default_config(), seed=7)


# ---------------------------------------------------------------------------
# failure exits
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_invalid_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[time]\ndt = -0.5\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_verb_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
