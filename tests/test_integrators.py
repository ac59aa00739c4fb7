"""Stepping-layer tests: cutoff, stopping, initial data, EM, Picard, trajectories.

The EM step is pinned two ways: bitwise against a hand-assembled composition
of the public operators (term inventory and order), and against the exact
pointwise identity for the director magnitude under a pure rotation step.
Picard windows are checked for contraction, determinism, and cutoff inertness.
"""

from __future__ import annotations

import dataclasses
import logging
import warnings

import numpy as np
import pytest

from slcsim.config import SimConfig
from slcsim.fields import State
from slcsim.grid import build_grid, divergence
from slcsim.integrators import (
    StoppingRecord,
    detect_tau,
    em_step,
    initial_state,
    picard_solve,
    run_trajectory,
    theta_cutoff,
)
from slcsim.noise import sample_path
from slcsim.operators import (
    OperatorCache,
    assemble_L,
    b1,
    b2,
    director_noise_increment,
    ericksen_divergence,
    f_penalty,
    g_cross,
    leray_project,
    semigroup_director,
    semigroup_velocity_step,
    velocity_noise_increment,
)

SERIES_KEYS = {
    "l2_v", "l2_d", "a_half_v", "a_v", "h2_d", "lap_d", "x1_d", "grad_d",
    "v_norm", "e_norm", "blowup", "energy_q", "max_gap", "psi",
    "phi_weight", "gl_energy",
}


def _cfg(**overrides) -> SimConfig:
    base = dict(
        n_dim=2, cells=(16, 16), lengths=(1.0, 1.0),
        dt=1e-3, horizon=0.02, mode_count=8,
    )
    base.update(overrides)
    return SimConfig(**base)


def _cache(cfg: SimConfig) -> OperatorCache:
    grid = cfg.grid()
    return OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)


# ---------------------------------------------------------------------------
# cutoff and stopping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x, expected",
    [
        (0.0, 1.0),
        (0.5, 1.0),
        (1.0, 1.0),       # identity holds up to the radius inclusive
        (1.5, 0.5),
        (2.0, 0.0),
        (7.0, 0.0),
    ],
)
def test_cutoff_contract_points(x, expected):
    assert theta_cutoff(x, 1.0) == expected


def test_cutoff_is_lipschitz_with_inverse_radius_constant():
    rng = np.random.default_rng(11)
    radius = 3.7
    xs = rng.uniform(0.0, 12.0, size=300)
    ys = rng.uniform(0.0, 12.0, size=300)
    for x, y in zip(xs, ys):
        gap = abs(theta_cutoff(float(x), radius) - theta_cutoff(float(y), radius))
        assert gap <= abs(x - y) / radius + 1e-12


def test_cutoff_rejects_negative_argument():
    with pytest.raises(ValueError):
        theta_cutoff(-1e-9, 1.0)


def test_detect_tau_records_first_crossings_and_halts_on_last():
    grid = build_grid(2, (8, 8), (1.0, 1.0))
    zero_v = np.zeros((2, 8, 8))
    zero_d = np.zeros((3, 8, 8))

    def at(t: float) -> State:
        return State(grid, zero_v, zero_d, t)

    rec = StoppingRecord(thresholds=(10.0, 100.0))
    detect_tau(at(0.0), rec, blowup=5.0)
    assert rec.hits == {} and not rec.halted
    detect_tau(at(0.1), rec, blowup=12.0)
    assert rec.hits == {10.0: 0.1} and not rec.halted
    detect_tau(at(0.2), rec, blowup=50.0)
    assert rec.hits == {10.0: 0.1}          # first crossing only, never overwritten
    detect_tau(at(0.3), rec, blowup=120.0)
    assert rec.hits == {10.0: 0.1, 100.0: 0.3}
    assert rec.halted


def test_detect_tau_computes_blowup_from_state_when_not_given():
    grid = build_grid(2, (8, 8), (1.0, 1.0))
    x, y = grid.meshgrid()
    v = np.zeros((2, 8, 8))
    v[0] = np.sin(np.pi * x) * np.sin(np.pi * y)
    d = np.zeros((3, 8, 8))
    hot = State(grid, v, d, 0.25)
    cold = State(grid, np.zeros_like(v), d, 0.25)

    rec = StoppingRecord(thresholds=(1e-12,))
    detect_tau(cold, rec)
    assert not rec.halted                    # zero field has zero blow-up functional
    detect_tau(hot, rec)
    assert rec.halted and rec.hits[1e-12] == 0.25


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(2, (16, 16), (1.0, 1.0)), (3, (8, 8, 8), (1.0, 1.0, 1.0))])
def test_initial_vortex_is_discretely_divergence_free(shape):
    n_dim, cells, lengths = shape
    cfg = _cfg(n_dim=n_dim, cells=cells, lengths=lengths)
    grid = cfg.grid()
    state = initial_state(cfg, grid)
    div = divergence(grid, state.v, "dirichlet")
    assert float(np.max(np.abs(div))) <= 1e-10
    assert state.t == 0.0


def test_initial_twist_director_has_exact_unit_length_times_amplitude():
    cfg = _cfg(director_amplitude=0.9)
    state = initial_state(cfg, cfg.grid())
    mag = np.sqrt(np.sum(state.d**2, axis=0))
    # spherical-angle construction: |d| is the amplitude pointwise
    assert float(np.max(np.abs(mag - 0.9))) <= 1e-14


def test_initial_uniform_director_and_zero_velocity_profiles():
    cfg = _cfg(director_profile="uniform", director_amplitude=0.7,
               velocity_profile="zero")
    state = initial_state(cfg, cfg.grid())
    assert np.all(state.v == 0.0)
    assert np.all(state.d[0] == 0.0) and np.all(state.d[1] == 0.0)
    assert np.all(state.d[2] == 0.7)


# ---------------------------------------------------------------------------
# Euler-Maruyama step
# ---------------------------------------------------------------------------

def test_em_step_matches_manual_operator_composition_bitwise():
    """The step must be exactly the documented composition, in order:
    explicit drift and noise at the left endpoint, then the linear solves."""
    cfg = _cfg()
    grid = cfg.grid()
    cache = _cache(cfg)
    state = initial_state(cfg, grid)
    path = sample_path(3, 0, cfg.dt, 1, cfg.mode_count)
    dt, dw1, dw2 = cfg.dt, path.w1(0), path.w2(0)

    out = em_step(state, dt, dw1, dw2, cache, cfg)

    v, d = state.v, state.d
    dv = -leray_project(grid, b1(grid, v, v) + ericksen_divergence(grid, d, d))
    dd = -assemble_L(cache, d)
    dd = dd - b2(grid, v, d)
    dd = dd - f_penalty(d, cache.eps)
    d_star = d + dt * dd + director_noise_increment(cache, d, dw2)
    v_star = v + dt * dv + velocity_noise_increment(cache, v, dw1)

    assert np.array_equal(out.d, semigroup_director(grid, d_star, dt))
    assert np.array_equal(out.v, semigroup_velocity_step(grid, v_star, dt))
    assert out.t == state.t + dt


def test_em_rotation_step_satisfies_exact_magnitude_identity():
    """With diffusion, transport, and penalty off, one step changes the
    squared director magnitude by exactly

        |d x h|^2 (dW^2 - dt) + |(d x h) x h|^2 dt^2 / 4

    pointwise: the rotation part is orthogonal to d and the half-square
    correction projects back along -d.  No tolerance beyond roundoff."""
    cfg = _cfg(freeze_velocity=True, director_diffusion=False,
               enable_penalty=False, enable_transport=False)
    grid = cfg.grid()
    cache = _cache(cfg)
    rng = np.random.default_rng(7)
    d = rng.standard_normal((3, *grid.cells))
    state = State(grid, np.zeros((2, *grid.cells)), d, 0.0)
    dt, dw2 = 1e-3, 0.0317

    out = em_step(state, dt, np.zeros(cfg.mode_count), dw2, cache, cfg)

    rot = g_cross(d, cache.h_field)
    rot2 = g_cross(rot, cache.h_field)
    lhs = np.sum(out.d**2, axis=0) - np.sum(d**2, axis=0)
    rhs = np.sum(rot**2, axis=0) * (dw2**2 - dt) + 0.25 * np.sum(rot2**2, axis=0) * dt**2
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-13
    assert np.array_equal(out.v, state.v)    # frozen velocity must pass through


def test_em_reduces_to_exact_heat_semigroup_without_forcing():
    # zero magnetic field kills both the rotation noise and its Ito correction
    cfg = _cfg(magnetic_profile="zero", freeze_velocity=True,
               enable_penalty=False, enable_transport=False)
    grid = cfg.grid()
    cache = _cache(cfg)
    rng = np.random.default_rng(5)
    d0 = rng.standard_normal((3, *grid.cells))
    state = State(grid, np.zeros((2, *grid.cells)), d0, 0.0)
    dt = 2e-3
    for j in range(5):
        state = em_step(state, dt, np.zeros(cfg.mode_count), 0.1, cache, cfg)
    exact = semigroup_director(grid, d0, 5 * dt)
    assert float(np.max(np.abs(state.d - exact))) <= 1e-12


def test_em_step_is_deterministic():
    cfg = _cfg()
    cache = _cache(cfg)
    state = initial_state(cfg, cfg.grid())
    path = sample_path(1, 0, cfg.dt, 1, cfg.mode_count)
    a = em_step(state, cfg.dt, path.w1(0), path.w2(0), cache, cfg)
    b = em_step(state, cfg.dt, path.w1(0), path.w2(0), cache, cfg)
    assert np.array_equal(a.v, b.v) and np.array_equal(a.d, b.d)


# ---------------------------------------------------------------------------
# Picard windows
# ---------------------------------------------------------------------------

def test_picard_window_converges_with_contracting_distances():
    cfg = _cfg(scheme="picard", horizon=8e-3)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(0, 0, cfg.dt, cfg.n_steps, cfg.mode_count)

    nodes, stats = picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)

    assert len(nodes) == cfg.n_steps + 1
    assert [s.t for s in nodes] == pytest.approx([j * cfg.dt for j in range(cfg.n_steps + 1)])
    assert stats.converged and stats.iterations <= cfg.max_iterations
    assert stats.min_theta == 1.0            # default radius never engages
    assert all(r < 1.0 for r in stats.ratios)
    assert stats.distances[-1] <= stats.distances[0]


def test_picard_window_is_deterministic():
    cfg = _cfg(scheme="picard", horizon=4e-3)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(2, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    nodes_a, stats_a = picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)
    nodes_b, stats_b = picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)
    for a, b in zip(nodes_a, nodes_b):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.d, b.d)
    assert stats_a.distances == stats_b.distances


def test_truncation_is_inert_while_cutoff_never_engages():
    """Doubling an already-slack radius must not move a single bit; a radius
    inside the path norm must visibly change the dynamics."""
    cfg = _cfg(scheme="picard", horizon=8e-3)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(0, 0, cfg.dt, cfg.n_steps, cfg.mode_count)

    nodes_a, stats_a = picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)
    cfg_wide = dataclasses.replace(cfg, truncation_radius=2.0 * cfg.truncation_radius)
    nodes_b, _ = picard_solve(cache, cfg_wide, y0, path, 0, cfg.n_steps)
    assert stats_a.min_theta == 1.0
    for a, b in zip(nodes_a, nodes_b):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.d, b.d)

    cfg_tight = dataclasses.replace(cfg, truncation_radius=0.05)
    nodes_c, stats_c = picard_solve(cache, cfg_tight, y0, path, 0, cfg.n_steps)
    assert stats_c.min_theta < 1.0
    gap = max(float(np.max(np.abs(a.d - c.d))) for a, c in zip(nodes_a, nodes_c))
    assert gap > 1e-3


def test_picard_respects_frozen_velocity():
    cfg = _cfg(scheme="picard", horizon=4e-3, freeze_velocity=True)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(4, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    nodes, _ = picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)
    for node in nodes:
        assert np.array_equal(node.v, y0.v)


# ---------------------------------------------------------------------------
# full trajectories
# ---------------------------------------------------------------------------

def test_trajectory_completes_and_records_every_step():
    cfg = _cfg()
    rec = run_trajectory(cfg)
    assert rec.status == "completed"
    assert rec.steps_completed == cfg.n_steps
    assert len(rec.times) == cfg.n_steps + 1
    np.testing.assert_allclose(rec.times, cfg.dt * np.arange(cfg.n_steps + 1))
    assert set(rec.series) == SERIES_KEYS
    assert all(len(col) == len(rec.times) for col in rec.series.values())
    assert abs(rec.terminal.t - cfg.horizon) <= 1e-12


def test_trajectory_record_cadence_always_includes_final_step():
    cfg = _cfg(record_every=7)
    rec = run_trajectory(cfg)
    np.testing.assert_allclose(rec.times, [0.0, 7e-3, 14e-3, 20e-3])


def test_trajectory_weight_series_starts_at_one_and_never_increases():
    rec = run_trajectory(_cfg(horizon=0.05))
    w = rec.series["phi_weight"]
    assert w[0] == 1.0
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert np.all(np.diff(w) <= 0.0)


def test_trajectory_stops_at_first_crossing_of_last_threshold():
    cfg = _cfg(thresholds=(1e-12,), record_every=5)
    rec = run_trajectory(cfg)
    assert rec.status == "stopped_at_tau"
    assert rec.stopping.halted
    assert rec.stopping.hits[1e-12] == 0.0   # nonzero initial data crosses at t = 0
    assert rec.steps_completed == 1
    # the halt row is forced into the record even off-cadence
    np.testing.assert_allclose(rec.times, [0.0, cfg.dt])


def test_trajectory_logs_lower_thresholds_without_halting():
    cfg = _cfg(thresholds=(1e-12, 1e12))
    rec = run_trajectory(cfg)
    assert rec.status == "completed"
    assert not rec.stopping.halted
    assert rec.stopping.hits == {1e-12: 0.0}


def test_trajectory_reports_numerical_failure_and_cfl_warning(caplog):
    # explicit advection at amplitude 1e4 with dt = 1 overflows within ~10
    # steps; the infinite threshold keeps the stopping functional out of the way
    cfg = _cfg(dt=1.0, horizon=30.0, velocity_amplitude=1e4,
               thresholds=(float("inf"),))
    with caplog.at_level(logging.WARNING, logger="slcsim.integrators"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                rec = run_trajectory(cfg)
    assert rec.status == "numerical_failure"
    assert rec.steps_completed < cfg.n_steps
    assert not np.all(np.isfinite(rec.terminal.v))
    assert "advective CFL exceeded" in caplog.text


def test_picard_trajectory_warns_on_advective_cfl(caplog):
    # the exact semigroups keep this run finite, but the CFL number of the
    # initial vortex is far above one, and Picard runs the same check as EM
    cfg = _cfg(scheme="picard", dt=1.0, horizon=3.0, velocity_amplitude=1e4,
               thresholds=(float("inf"),), max_iterations=3)
    with caplog.at_level(logging.WARNING, logger="slcsim.integrators"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                run_trajectory(cfg)
    assert "advective CFL exceeded at t=0" in caplog.text


def test_picard_numerical_failure_keeps_the_non_finite_node(monkeypatch):
    """Both schemes share one rule: the first non-finite node counts as a
    step and becomes the terminal state."""
    import slcsim.integrators as integrators

    real = integrators.picard_solve

    def poisoned(cache, cfg, y0, path, start, n):
        nodes, stats = real(cache, cfg, y0, path, start, n)
        if start == 4:
            bad = nodes[2]
            nodes[2] = State(bad.grid, np.full_like(bad.v, np.nan), bad.d, bad.t)
        return nodes, stats

    monkeypatch.setattr(integrators, "picard_solve", poisoned)
    cfg = _cfg(scheme="picard", horizon=16e-3, window=4e-3)
    rec = run_trajectory(cfg)
    assert rec.status == "numerical_failure"
    assert rec.steps_completed == 6
    assert not np.all(np.isfinite(rec.terminal.v))
    np.testing.assert_allclose(rec.times, cfg.dt * np.arange(6))  # none for the bad node


def test_trajectory_snapshot_sink_follows_configured_cadence():
    seen: list[int] = []
    cfg = _cfg(horizon=12e-3, save_snapshots=True, snapshot_every=5)
    run_trajectory(cfg, snapshot_sink=lambda j, s: seen.append(j))
    assert seen == [0, 5, 10]

    seen.clear()
    cfg_off = _cfg(horizon=12e-3, save_snapshots=False, snapshot_every=5)
    run_trajectory(cfg_off, snapshot_sink=lambda j, s: seen.append(j))
    assert seen == []


def test_trajectory_picard_scheme_reports_window_stats():
    cfg = _cfg(scheme="picard", horizon=16e-3, window=4e-3)
    rec = run_trajectory(cfg)
    assert rec.status == "completed"
    assert rec.steps_completed == 16
    assert len(rec.windows) == 4
    assert all(w.converged for w in rec.windows)
    assert all(w.min_theta == 1.0 for w in rec.windows)
    assert len(rec.times) == 17


def test_em_and_picard_agree_on_shared_noise():
    """Same Brownian realization, same horizon: the two schemes are distinct
    discretizations of one equation and must land close together."""
    cfg_em = _cfg(horizon=16e-3)
    cfg_pi = _cfg(horizon=16e-3, scheme="picard", window=4e-3)
    path = sample_path(cfg_em.seed, 0, cfg_em.dt, cfg_em.n_steps, cfg_em.mode_count)
    a = run_trajectory(cfg_em, path=path)
    b = run_trajectory(cfg_pi, path=path)
    rel_v = np.linalg.norm(a.terminal.v - b.terminal.v) / np.linalg.norm(a.terminal.v)
    rel_d = np.linalg.norm(a.terminal.d - b.terminal.d) / np.linalg.norm(a.terminal.d)
    assert rel_v <= 0.08
    assert rel_d <= 0.01


def test_trajectory_rejects_mismatched_path_mode_count():
    cfg = _cfg()
    bad = sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count + 1)
    with pytest.raises(ValueError):
        run_trajectory(cfg, path=bad)
