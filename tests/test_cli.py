"""Config round-trip and batch front-end tests.

The CLI contract under test: manifests are written before compute, identical
(config, seed) pairs produce identical bytes, worker parallelism never changes
results, every user or domain error maps to exit code 2 instead of a
traceback, and a non-finite trajectory (3) or a failed probe (4) shows in the
exit code.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slcsim
import slcsim.cli
import slcsim.integrators
from slcsim.cli import main
from slcsim.config import SimConfig, parse_config, to_text
from slcsim.diagnostics import ProbeResult
from slcsim.errors import ConfigError
from slcsim.fields import read_snapshot
from slcsim.integrators import run_ensemble

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
    cfg = SimConfig()
    assert parse_config(to_text(cfg)) == cfg


def test_customized_config_round_trips_through_text():
    cfg = SimConfig(
        n_dim=3, cells=(8, 8, 16), lengths=(1.0, 1.0, 2.0),
        dt=2.5e-4, scheme="picard", freeze_velocity=True,
        thresholds=(10.0, 1000.0), sigma=0.125, seed=42,
    )
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
    cases = [
        (dict(dt=-1.0, scheme="verlet", thresholds=(100.0, 10.0)),
         ["dt must be positive", "scheme must be em or picard",
          "thresholds must be ascending"]),
        # step counts are never rounded: 62.5 steps and half a step are errors
        (dict(horizon=0.0625, scheme="picard", window=0.0625),
         ["horizon/dt must be an integer >= 1, got 62.5",
          "picard window/dt must be an integer >= 1, got 62.5"]),
        (dict(horizon=5e-4), ["horizon/dt must be an integer >= 1, got 0.5"]),
        # the noise spec reports each of its violations, not only the first
        (dict(noise_kind="white", sigma=-0.1, clip=0.0),
         ["unknown noise kind 'white'", "sigma must be nonnegative", "clip must be positive"]),
    ]
    for overrides, messages in cases:
        with pytest.raises(ConfigError) as err:
            SimConfig(**overrides)
        for message in messages:
            assert message in str(err.value)


def test_validate_accepts_step_counts_up_to_rounding():
    # 0.1 / 0.004 evaluates to 25.000000000000004; Euler-Maruyama has no window
    SimConfig(dt=0.004, horizon=0.1, scheme="picard", window=0.02)
    SimConfig(window=0.0625)
    assert SimConfig(dt=0.004, horizon=0.1).n_steps == 25


def test_config_built_in_python_never_rounds_its_step_count():
    # 0.0625 / 0.001 is 62.5 steps
    with pytest.raises(ConfigError, match="horizon/dt must be an integer >= 1, got 62.5"):
        SimConfig(cells=(16, 16), horizon=0.0625, mode_count=8)
    # 0.0035 / 0.001 is 3.5 steps per Picard window
    with pytest.raises(ConfigError, match="picard window/dt must be an integer >= 1, got 3.5"):
        SimConfig(cells=(16, 16), horizon=0.012, mode_count=8, scheme="picard", window=0.0035)


# (field, a value no SimConfig may hold, the same value as INI text, the message)
REJECTED_AT_CONSTRUCTION = [
    ("record_every", 0, "[diagnostics]\nrecord_every = 0", "record_every must be at least 1"),
    ("director_amplitude", 2.0, "[initial]\ndirector_amplitude = 2.0",
     "director_amplitude must lie in (0, 1]"),
    ("thresholds", (10.0, 1.0), "[stopping]\nthresholds = 10 1", "thresholds must be ascending"),
    ("q", 1.0, "[physics]\nq = 1.0", "q must be at least 2, got 1.0"),
    ("snapshot_every", -1, "[output]\nsnapshot_every = -1", "snapshot_every must be nonnegative"),
    ("horizon", 0.0625, "[time]\nhorizon = 0.0625",
     "horizon/dt must be an integer >= 1, got 62.5"),
]


@pytest.mark.parametrize("name, value, ini, message", REJECTED_AT_CONSTRUCTION,
                         ids=[case[0] for case in REJECTED_AT_CONSTRUCTION])
def test_config_built_in_python_is_rejected_as_its_ini_text_is(name, value, ini, message):
    with pytest.raises(ConfigError) as from_ini:
        parse_config(ini + "\n")
    assert message in str(from_ini.value)
    with pytest.raises(ConfigError) as built:
        SimConfig(**{name: value})
    assert str(built.value) == str(from_ini.value)
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(SimConfig(), **{name: value})
    assert str(replaced.value) == str(from_ini.value)


# the float fields of SimConfig, scalar or tuple
FLOAT_FIELDS = [
    "lengths", "dt", "horizon", "eps", "q", "sigma", "decay_exponent", "clip",
    "magnetic_amplitude", "velocity_amplitude", "director_amplitude", "window",
    "tolerance", "truncation_radius", "thresholds",
]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_validate_rejects_nan_in_every_float_field(name):
    value = getattr(SimConfig(), name)
    nan = (float("nan"),) * len(value) if isinstance(value, tuple) else float("nan")
    with pytest.raises(ConfigError, match=f"{name} must not be NaN"):
        SimConfig(**{name: nan})


def test_parse_config_rejects_nan_but_keeps_infinite_thresholds():
    with pytest.raises(ConfigError, match="q must not be NaN"):
        parse_config("[physics]\nq = nan\n")
    assert parse_config("[stopping]\nthresholds = inf\n").thresholds == (float("inf"),)


@pytest.mark.parametrize("name", [f for f in FLOAT_FIELDS if f != "thresholds"])
def test_validate_rejects_inf_in_every_float_field_but_thresholds(name):
    value = getattr(SimConfig(), name)
    inf = (float("inf"),) * len(value) if isinstance(value, tuple) else float("inf")
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        SimConfig(**{name: inf})


def test_validate_bounds_mode_count_by_the_grid_modes():
    # a 16^2 grid has 2 * 16 * 16 = 512 velocity modes
    cfg = SimConfig(cells=(16, 16), mode_count=512)
    with pytest.raises(ConfigError, match="mode_count must be at most 512 on this grid, got 513"):
        dataclasses.replace(cfg, mode_count=513)


def test_validate_bounds_the_seed_by_64_bits():
    SimConfig(seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SimConfig(seed=seed)


@pytest.mark.parametrize("args,text", [
    (["--seed", str(2**64)], SMALL),
    ([], SMALL.replace("mode_count = 8", "mode_count = 1000")),
    ([], SMALL + "\n[physics]\nq = nan\n"),
    # an infinite radius or eps would silently drop the cutoff or the penalty
    ([], SMALL + "\n[picard]\ntruncation_radius = inf\n"),
    ([], SMALL + "\n[physics]\neps = inf\n"),
], ids=["seed-2**64", "mode_count-1000", "q-nan", "truncation_radius-inf", "eps-inf"])
def test_run_rejects_what_it_cannot_honour_with_exit_two(tmp_path, capsys, args, text):
    out = tmp_path / "o"
    code = main(["run", "--config", str(_write_config(tmp_path, text)), "--out", str(out), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and len(err.splitlines()) == 1, err
    assert not out.exists()


@st.composite
def _valid_configs(draw):
    n_dim = draw(st.sampled_from([2, 3]))
    positive = st.floats(1e-6, 1e6)
    dt = 2.0 ** -draw(st.integers(0, 14))
    cells = tuple(2 ** e for e in draw(st.lists(st.integers(2, 6), min_size=n_dim,
                                                max_size=n_dim)))
    return SimConfig(
        n_dim=n_dim,
        cells=cells,
        lengths=tuple(draw(st.lists(st.floats(0.125, 8.0), min_size=n_dim, max_size=n_dim))),
        dt=dt,
        horizon=draw(st.integers(1, 10**6)) * dt,
        scheme=draw(st.sampled_from(["em", "picard"])),
        eps=draw(positive),
        q=draw(st.floats(2.0, 8.0)),
        noise_kind=draw(st.sampled_from(["additive_trace_class", "linear_multiplicative"])),
        sigma=draw(st.floats(0.0, 10.0)),
        decay_exponent=draw(st.floats(1.0, 4.0, exclude_min=True)),
        mode_count=draw(st.integers(1, min(64, n_dim * math.prod(cells)))),
        clip=draw(positive),
        magnetic_profile=draw(st.sampled_from(["zero", "sine_bump"])),
        magnetic_amplitude=draw(st.floats(-10.0, 10.0)),
        velocity_profile=draw(st.sampled_from(["zero", "taylor_vortex"])),
        velocity_amplitude=draw(st.floats(0.0, 1e4)),
        director_profile=draw(st.sampled_from(["uniform", "twist"])),
        director_amplitude=draw(st.floats(0.0, 1.0, exclude_min=True)),
        window=draw(st.integers(1, 10**4)) * dt,
        tolerance=draw(positive),
        max_iterations=draw(st.integers(1, 1000)),
        truncation_radius=draw(positive),
        thresholds=tuple(sorted(draw(st.lists(st.floats(1e-6, float("inf")),
                                              min_size=1, max_size=3)))),
        record_every=draw(st.integers(1, 1000)),
        freeze_velocity=draw(st.booleans()),
        director_diffusion=draw(st.booleans()),
        enable_penalty=draw(st.booleans()),
        enable_transport=draw(st.booleans()),
        snapshot_every=draw(st.integers(0, 1000)),
        seed=draw(st.integers(0, 2**63)),
        trajectories=draw(st.integers(1, 4096)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_valid_configs())
def test_config_text_round_trip_property(cfg):
    """Every valid config, with dt = 2^-k and whole step counts, survives
    to_text/parse_config unchanged, and its horizon is n_steps whole steps."""
    assert parse_config(to_text(cfg)) == cfg
    assert cfg.n_steps * cfg.dt == cfg.horizon


def test_readme_config_examples_parse():
    """Every ini block in the README parses; the abridged listing shows defaults."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        assert parse_config(block) == SimConfig()


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


def test_picard_run_reports_each_window_distances_and_ratios(tmp_path):
    cfg_path = _write_config(tmp_path, SMALL + "\n[picard]\nwindow = 0.002\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--scheme", "picard",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "run.json").read_text())
    assert "failure" not in summary          # written for failed trajectories only
    windows = summary["windows"]
    assert len(windows) == 3                 # 2 + 2 + 1 of the 5 steps
    for w in windows:
        distances = [float(x) for x in w["distances"]]
        ratios = [float(x) for x in w["ratios"]]
        assert w["converged"] and len(distances) == w["iterations"] >= 2
        # the strings round-trip, so each ratio is the quotient of its distances
        assert ratios == [b / a for a, b in zip(distances, distances[1:])]
        assert all(0.0 <= r < 1.0 for r in ratios)


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


@pytest.mark.parametrize("verb, output", [
    ("run", "save_snapshots = true\n"),
    ("ensemble", "snapshot_every = 2\n"),
    ("probes", "snapshot_every = 2\n"),
])
def test_snapshot_settings_that_would_write_nothing_are_rejected(tmp_path, capsys, verb,
                                                                 output):
    # save_snapshots is an unknown key, and ensemble or probes at any snapshot
    # cadence would write no .slcf file
    cfg_path = _write_config(tmp_path, SMALL + "\n[output]\n" + output)
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
    assert not out.exists()                 # rejected before the manifest


def test_run_writes_readable_snapshots_at_cadence(tmp_path):
    text = SMALL + "\n[output]\nsnapshot_every = 2\n"
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
    # no process is started here: a stand-in pool records the size
    # run_ensemble asks for and maps in this process, and a stand-in
    # run_trajectory returns its trajectory index
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *jobs):
            return map(fn, *jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(slcsim.integrators, "run_trajectory", lambda cfg, trajectory: trajectory)

    def processes(workers, trajectories):
        sizes.clear()
        records = run_ensemble(SimConfig(trajectories=trajectories), workers)
        assert records == list(range(trajectories))
        return sizes[0] if sizes else 1  # no pool: the trajectories ran in this process

    # the affinity mask, where the platform has one, counts the usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert processes(64, 8) == 3
    assert processes(64, 2) == 2
    assert processes(1, 8) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert processes(4, 8) == 1             # pinned to one of the machine's 8 CPUs
    # elsewhere the machine's CPU count does
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert processes(64, 8) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert processes(4, 8) == 1


@pytest.mark.parametrize("raw", ["notanint", "0", "-3"])
def test_ensemble_rejects_bad_worker_env(tmp_path, monkeypatch, capsys, raw):
    cfg_path = _write_config(tmp_path)
    monkeypatch.setenv("SLCSIM_WORKERS", raw)
    out = tmp_path / "o"
    code = main(["ensemble", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: SLCSIM_WORKERS must be")
    assert not out.exists()                 # rejected before the manifest


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
        return [ProbeResult("b1_skew_symmetry", 2.0, 0.0, 1.0)]

    monkeypatch.setattr(slcsim.cli, "probe_suite", failing)
    out = tmp_path / "out"
    assert main(["probes", "--skip-contraction", "--out", str(out)]) == 4
    assert json.loads((out / "probes_report.json").read_text())["all_passed"] is False
    assert "FAIL  b1_skew_symmetry" in capsys.readouterr().out


def test_probes_verb_appends_the_contraction_probe_unless_skipped(tmp_path, monkeypatch):
    # both stubbed: what runs, on which config, and where its result goes
    seen = []

    def contraction(cfg):
        seen.append(cfg.seed)
        return ProbeResult("contraction_slope", 0.25, 0.15, 0.35)

    monkeypatch.setattr(slcsim.cli, "probe_suite",
                        lambda seed: [ProbeResult("b1_skew_symmetry", 0.0, 0.0, 1e-11)])
    monkeypatch.setattr(slcsim.cli, "contraction_probe", contraction)
    for flag, names in (("--seed=7", ["b1_skew_symmetry", "contraction_slope"]),
                        ("--skip-contraction", ["b1_skew_symmetry"])):
        out = tmp_path / flag.strip("-")
        assert main(["probes", flag, "--out", str(out)]) == 0
        report = json.loads((out / "probes_report.json").read_text())
        assert [p["name"] for p in report["probes"]] == names
    assert seen == [7]


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


# the same blow-up in 3D, where phi's rate takes |A^{1/2}v| to the sixth power
UNSTABLE_3D = """
[grid]
n_dim = 3
cells = 8 8 8
lengths = 1.0 1.0 1.0

[time]
dt = 1.0
horizon = 30.0

[initial]
velocity_amplitude = 10000.0

[stopping]
thresholds = inf
"""

# the entries of a node's spectral summary, which a failure names when the
# node's fields are finite but a norm of them is not
SUMMARY_NAMES = {"l2_v", "l2_d", "a_half_v", "a_v", "h2_d", "lap_d", "x1_d", "grad_d",
                 "v_norm", "e_norm", "blowup"}


def test_non_finite_trajectories_exit_three(tmp_path):
    # explicit advection at amplitude 1e4 with dt = 1 overflows within ~10 steps;
    # on the way, energy_q at q = 4 and the 3D phi rate pass the largest float
    for case, text in (("2d", UNSTABLE), ("q4", UNSTABLE + "\n[physics]\nq = 4.0\n"),
                       ("3d", UNSTABLE_3D)):
        (tmp_path / case).mkdir()
        cfg_path = _write_config(tmp_path / case, text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                code_run = main(["run", "--config", str(cfg_path),
                                 "--out", str(tmp_path / case / "r")])
                code_ens = main(["ensemble", "--config", str(cfg_path), "--trajectories", "2",
                                 "--out", str(tmp_path / case / "e")])
        assert code_run == 3, case
        run = json.loads((tmp_path / case / "r" / "run.json").read_text())
        assert run["status"] == "numerical_failure"
        assert _status(tmp_path / case / "r") == "complete"
        assert code_ens == 3, case
        report = json.loads((tmp_path / case / "e" / "ensemble.json").read_text())
        assert report["statuses"] == ["numerical_failure"]
        # the node that went non-finite: its step, its time (dt = 1) and its fields
        for summary in [run, *report["trajectories"]]:
            failure = summary["failure"]
            assert failure["step"] == summary["steps_completed"]
            assert float(failure["time"]) == failure["step"]
            # the non-finite fields or, where both are finite, the overflowed norms
            fields = failure["fields"]
            assert fields in (["v"], ["d"], ["v", "d"]) or set(fields) <= SUMMARY_NAMES, fields
        if case == "3d":  # step 7's fields are finite, and their L2 norms overflow
            assert run["failure"]["step"] == 7
            assert "l2_v" in run["failure"]["fields"]


def test_describe_config_output_parses_back(capsys):
    assert main(["describe-config", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg == SimConfig(seed=7)


# ---------------------------------------------------------------------------
# failure exits
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["em", "picard"])
def test_non_finite_initial_state_fails_before_the_first_step(tmp_path, monkeypatch, scheme):
    """The Leray projection of an amplitude-1e308 vortex overflows, so the
    state at t = 0 is already NaN: the run ends at step 0 without stepping."""
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken from a non-finite initial state")

    monkeypatch.setattr(slcsim.integrators, "em_step", no_step)
    monkeypatch.setattr(slcsim.integrators, "picard_solve", no_step)
    text = (SMALL.replace("horizon = 0.005", "horizon = 0.004")
            + "\n[initial]\nvelocity_amplitude = 1e308\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(_write_config(tmp_path, text)),
                         "--scheme", scheme, "--out", str(out)])
    assert code == 3
    run = json.loads((out / "run.json").read_text())
    assert run["status"] == "numerical_failure"
    assert run["steps_completed"] == 0
    assert run["failure"] == {"step": 0, "time": "0", "fields": ["v"]}
    assert run["windows"] == []
    rows = (out / "trajectory_000000.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[:2] == ["0", "nan"]  # the t = 0 row only


def test_invalid_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[time]\ndt = -0.5\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


# at rest with no forcing, the first Picard sweep already reaches the fixed
# point, so the contraction probe has no ratio to measure
STILL = """
[grid]
cells = 16, 16

[velocity_noise]
sigma = 0.0

[magnetic]
profile = zero

[initial]
velocity = zero
director = uniform

[diagnostics]
enable_penalty = false
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(slcsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_domain_error_exits_two_with_one_line_and_no_traceback(tmp_path):
    cfg_path = _write_config(tmp_path, STILL)
    proc = _python("-m", "slcsim.cli", "probes", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "domain error: window converged too fast to measure a contraction ratio"
    ]
    assert not (tmp_path / "o" / "probes_report.json").exists()


def test_config_syntax_error_exits_two_with_one_line_and_no_traceback(tmp_path):
    # configparser's own message spans three lines for this file
    cfg_path = _write_config(tmp_path, "garbage\n")
    proc = _python("-m", "slcsim.cli", "run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("configuration error: config syntax: File contains no section")


def test_error_message_with_a_unicode_line_separator_is_one_line(tmp_path):
    # U+2028 in a section name is echoed into the message, and splitlines()
    # breaks on it as on a newline
    cfg_path = tmp_path / "sep.ini"
    cfg_path.write_text("[a\u2028b]\n", encoding="utf-8")
    proc = _python("-m", "slcsim.cli", "run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("configuration error: ")


@pytest.mark.parametrize("text", [UNSTABLE, UNSTABLE_3D], ids=["2d", "3d"])
@pytest.mark.parametrize("verb", ["run", "ensemble"])
def test_numerical_failure_writes_only_the_cfl_warning(tmp_path, monkeypatch, verb, text):
    # NumPy's overflow warnings on the way to the non-finite node stay off stderr
    monkeypatch.setenv("SLCSIM_WORKERS", "2")
    proc = _python("-m", "slcsim.cli", verb, "--config", str(_write_config(tmp_path, text)),
                   "--trajectories", "2", "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == (1 if verb == "run" else 2), lines       # one per trajectory
    assert all(line.startswith("advective CFL exceeded") for line in lines), lines


# a path of 10^15 steps asks for 121 PiB, beyond the address space, so the
# allocation fails at once and touches no memory
HUGE = """
[grid]
cells = 16 16

[time]
horizon = 1e12
"""


@pytest.mark.parametrize("verb, workers", [("run", "1"), ("ensemble", "2")])
def test_allocation_failure_exits_two_with_one_line_and_no_traceback(tmp_path, monkeypatch,
                                                                      verb, workers):
    # a pooled ensemble's workers hand their MemoryError back through the pool
    monkeypatch.setenv("SLCSIM_WORKERS", workers)
    cfg_path = _write_config(tmp_path, HUGE)
    out = tmp_path / "o"
    proc = _python("-m", "slcsim.cli", verb, "--config", str(cfg_path), "--trajectories", "2",
                   "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("memory error: Unable to allocate 121. PiB")
    assert _status(out) == f"aborted: {line}"


# the issue's at-rest repro: no forcing and no motion, so the contraction
# probe runs out of ratios after the rest of the suite has run
REST = """
[grid]
cells = 16 16

[velocity_noise]
sigma = 0

[magnetic]
amplitude = 0

[initial]
velocity_amplitude = 0
director = uniform
director_amplitude = 1
"""


def _status(out: Path) -> str:
    return json.loads((out / "manifest.json").read_text())["status"]


def test_manifest_status_records_how_the_verb_ended(tmp_path, monkeypatch, capsys):
    cfg_path = _write_config(tmp_path, REST)
    out = tmp_path / "aborted"
    assert main(["probes", "--config", str(cfg_path), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "domain error: window converged too fast to measure a contraction ratio"
    assert _status(out) == f"aborted: {line}"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    # a verb that returns, whatever its exit code, completes its manifest;
    # while it computes, the manifest says it is running
    seen = []

    def failing(**kwargs):
        seen.append(_status(tmp_path / "failed"))
        return [ProbeResult("b1_skew_symmetry", 2.0, 0.0, 1.0)]

    monkeypatch.setattr(slcsim.cli, "probe_suite", failing)
    assert main(["probes", "--skip-contraction", "--out", str(tmp_path / "failed")]) == 4
    assert seen == ["running"]
    assert _status(tmp_path / "failed") == "complete"

    cfg_path = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert _status(tmp_path / "run") == "complete"

    # an error before the manifest is written leaves no manifest behind
    bad = _write_config(tmp_path, "[grid]\ncells = 3 3\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()


def test_run_never_imports_the_process_pool(tmp_path):
    # only an ensemble with more than one worker needs concurrent.futures
    cfg_path = _write_config(tmp_path, SMALL.replace("horizon = 0.005", "horizon = 0.002"))
    proc = _python("-c", "import json, slcsim.cli, sys; code = slcsim.cli.main(['run', "
                   f"'--config', {str(cfg_path)!r}, '--out', {str(tmp_path / 'o')!r}]); "
                   "print(json.dumps([code, 'concurrent.futures' in sys.modules]))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False]


def _loaded_by_cli_import(prefixes: tuple[str, ...]) -> list[str]:
    """The modules under any of ``prefixes`` that ``import slcsim.cli`` loads
    in a fresh interpreter."""
    proc = _python("-c", "import json, slcsim.cli, sys; print(json.dumps(sorted("
                   f"m for m in sys.modules if m.startswith({prefixes!r}))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy_fft_or_special():
    # grid.py loads SciPy's compiled pocketfft module by path; importing the
    # scipy.fft package instead would more than double the CLI's start-up time
    assert _loaded_by_cli_import(("scipy.fft", "scipy.special")) == []


def test_cli_import_loads_no_numpy_random_or_process_pool():
    # the random draws and the pool are imported where they are used, so
    # every verb's set-up, and probes' above all, skips both
    assert _loaded_by_cli_import(("numpy.random", "concurrent.futures")) == []


def test_unknown_verb_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_benchmark_tracer_counts_the_stepping_functions_and_uninstalls(tmp_path, monkeypatch):
    """The benchmark's tracer (perfbench/tracer.py, loaded as it is) wraps
    slcsim functions by name; a rename of a traced function fails here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)

    cfg_path = _write_config(tmp_path, SMALL.replace("horizon = 0.005", "horizon = 0.002")
                             + "\n[picard]\nwindow = 0.002\n")  # 2 steps, one window
    names = ("em_step", "picard_solve", "run_trajectory")
    originals = {n: getattr(slcsim.integrators, n) for n in names}
    tracer = module.Tracer()
    tracer.install()
    try:
        for scheme in ("em", "picard"):
            assert slcsim.cli.main(["run", "--config", str(cfg_path), "--scheme", scheme,
                                    "--out", str(tmp_path / scheme)]) == 0
    finally:
        tracer.uninstall()
    calls = {name: s.calls for name, s in tracer.stats.items()}
    assert calls["integrators.em_step"] == 2
    assert calls["integrators.picard_solve"] == 1 and tracer.picard_sweeps >= 1
    assert calls["integrators.run_trajectory"] == 2
    assert calls["cli.main"] == 2
    assert {n: getattr(slcsim.integrators, n) for n in names} == originals
    assert slcsim.cli.run_trajectory is originals["run_trajectory"]
    assert slcsim.cli.main is main
