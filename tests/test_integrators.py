"""Stepping-layer tests: cutoff, stopping, initial data, EM, Picard, trajectories.

The EM step is pinned two ways: bitwise against a hand-assembled composition
of the public operators (term inventory and order), and against the exact
pointwise identity for the director magnitude under a pure rotation step.
Picard's first sweep is pinned bitwise against the same composition with the
exact semigroups and an engaged cutoff, its fixed point bitwise against the
exponential-Euler recursion it terminates at, and the streamed sweep bitwise
against a full-sweep oracle kept here, with tracemalloc bounds on the
iterates it holds.  Picard windows are checked for contraction,
determinism, cutoff inertness, and the gluing of truncated solutions up to
the node where the path norm crosses the radius.  EM is checked to commute
with a director rotation about the magnetic field's axis, with a control
rotation that does not commute, and with the reflection of either wall
pair, with controls that drop the velocity or the noise signs, and to
converge at strong order 1/2 to the closed-form Stratonovich rotation of
the director.
Both schemes are checked to be adapted, Picard up to its window's
tolerance, and EM without noise to dissipate what the energy law behind
2D nonexplosion prescribes.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import slcsim.integrators as integrators
from slcsim.config import SimConfig
from slcsim.errors import ConfigError
from slcsim.fields import State, spectral_summary
from slcsim.grid import divergence
from slcsim.integrators import (
    _step,
    detect_tau,
    em_step,
    initial_state,
    picard_solve,
    run_ensemble,
    run_trajectory,
    theta_cutoff,
)
from slcsim.noise import refine, sample_path
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
    semigroup_velocity_exact,
    semigroup_velocity_step,
    velocity_noise_increment,
)
from slcsim.operators import _mode_table

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
    hits: dict[float, float] = {}
    thresholds = (10.0, 100.0)
    assert not detect_tau(hits, thresholds, 0.0, blowup=5.0) and hits == {}
    assert not detect_tau(hits, thresholds, 0.1, blowup=12.0) and hits == {10.0: 0.1}
    assert not detect_tau(hits, thresholds, 0.2, blowup=50.0)
    assert hits == {10.0: 0.1}              # first crossing only, never overwritten
    assert detect_tau(hits, thresholds, 0.3, blowup=120.0)
    assert hits == {10.0: 0.1, 100.0: 0.3}


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(2, (16, 16), (1.0, 1.0)), (3, (8, 8, 8), (1.0, 1.0, 1.0))])
def test_initial_vortex_is_discretely_divergence_free(shape):
    n_dim, cells, lengths = shape
    cfg = _cfg(n_dim=n_dim, cells=cells, lengths=lengths)
    grid = cfg.grid()
    state = initial_state(cfg, grid)
    div = divergence(grid, state.v)
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


def _rotate(d: np.ndarray, axis: int, angle: float) -> np.ndarray:
    """The director components turned by ``angle`` about e_axis."""
    i, j = [a for a in range(3) if a != axis]
    c, s = math.cos(angle), math.sin(angle)
    out = d.copy()
    out[i] = c * d[i] - s * d[j]
    out[j] = s * d[i] + c * d[j]
    return out


def test_em_commutes_with_director_rotation_about_the_field_axis():
    """h lies along e_0, so a rotation R about e_0 commutes with d x h, the
    Ito correction, the ball penalty, the Ericksen stress and transport:
    twenty EM steps from R d0 end at R d(T), with the same velocity.
    Measured: 8.9e-16 relative in d and 7.6e-16 in v, against a 1e-12 bound.
    A rotation about e_2 moves h's image, and the runs part by 1.9e-2 in d
    (bound 1e-3), so the check cannot pass vacuously."""
    cfg = _cfg(cells=(32, 16), lengths=(1.0, 0.7))
    cache = _cache(cfg)
    grid = cache.grid
    assert np.all(cache.h_field[1:] == 0.0)
    path = sample_path(3, 0, cfg.dt, cfg.n_steps, cfg.mode_count)

    def run(state: State) -> State:
        for j in range(cfg.n_steps):
            state = em_step(state, cfg.dt, path.w1(j), path.w2(j), cache, cfg)
        return state

    y0 = initial_state(cfg, grid)
    end = run(y0)
    assert cfg.n_steps == 20

    def rel(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    turned = run(State(grid, y0.v, _rotate(y0.d, 0, 0.7), 0.0))
    assert rel(_rotate(end.d, 0, 0.7), turned.d) <= 1e-12
    assert rel(end.v, turned.v) <= 1e-12

    control = run(State(grid, y0.v, _rotate(y0.d, 2, 0.7), 0.0))
    assert rel(_rotate(end.d, 2, 0.7), control.d) > 1e-3


def test_em_converges_at_strong_order_half_to_the_closed_form_rotation():
    """With the velocity frozen and diffusion, penalty and transport off, the
    director solves the Stratonovich equation dd = (d x h) o dW_2.  h lies
    along e_0, so the exact path turns each cell's (d_1, d_2) by
    h_0(x) W_2(t), and needs no reference solve.  EM on each of 16 paths,
    refined five times from dt 2^-6 to 2^-11, must converge to it at strong
    order 1/2 (Kloeden & Platen).  Measured: the RMS relative error falls
    from 7.8e-3 to 1.5e-3, a fitted slope of 0.48.  With the Ito correction
    zeroed the slope is 0.008 and the finest error 2.6e-2; doubled, 0.017
    and 2.3e-2."""
    cfg = _cfg(dt=2.0**-6, horizon=2.0**-2, mode_count=4, freeze_velocity=True,
               director_diffusion=False, enable_penalty=False, enable_transport=False,
               record_every=2**11)  # only the end rows: the oracle reads the terminal state
    grid = cfg.grid()
    h0 = _cache(cfg).h_field[0]
    d0 = initial_state(cfg, grid).d
    levels, n_paths = 6, 16
    sq_errors = np.zeros((levels, n_paths))
    for p in range(n_paths):
        path = sample_path(cfg.seed, p, cfg.dt, cfg.n_steps, cfg.mode_count)
        for level in range(levels):
            angle = h0 * np.sum(path.increments[:, cfg.mode_count])  # h_0 W_2(T)
            c, s = np.cos(angle), np.sin(angle)
            exact = np.stack([d0[0], c * d0[1] + s * d0[2], c * d0[2] - s * d0[1]])
            rec = run_trajectory(cfg, trajectory=p, path=path)
            assert rec.status == "completed"
            sq_errors[level, p] = np.sum((rec.terminal.d - exact) ** 2) / np.sum(exact**2)
            path = refine(path)

    rms = np.sqrt(sq_errors.mean(axis=1))
    dts = cfg.dt / 2.0 ** np.arange(levels)
    slope = np.polyfit(np.log(dts), np.log(rms), 1)[0]
    assert 0.3 <= slope <= 0.8, (slope, rms)
    assert rms[-1] <= 5e-3, rms


def _reflect(state: State, axis: int, negate: bool = True) -> State:
    """Every field flipped along x_axis, and v_axis negated if ``negate``."""
    v = np.flip(state.v, axis=1 + axis).copy()
    if negate:
        v[axis] *= -1.0
    return State(state.grid, v, np.flip(state.d, axis=1 + axis).copy(), state.t)


@pytest.mark.parametrize("axis", [0, 1])
def test_em_commutes_with_wall_reflection(axis):
    """The reflection R_a: x_a -> L_a - x_a of every field, with v_a negated,
    maps the equation to itself: the magnetic bump and the walls are
    symmetric, no director component changes sign, and the velocity noise
    increment of mode (k, comp) maps to (-1)^(k_a + 1) times itself, times -1
    more if comp = a.  Twenty EM steps from R_a y0 on those signed increments
    end at R_a y(T).  Measured, as max-abs error over max-abs field: 7.9e-16
    in v and 1.0e-15 in d on axis 0, 6.6e-16 and 1.4e-15 on axis 1, against
    1e-12.  Controls: without the v_a negation v parts by 0.85 (axis 0) and
    1.0 (axis 1), bound 1e-1; without the noise signs by 9.6e-5 and 1.0e-4,
    bound 1e-5."""
    cfg = _cfg(cells=(32, 16), lengths=(1.0, 0.7), mode_count=16, seed=3)
    cache = _cache(cfg)
    grid = cache.grid
    path = sample_path(3, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    assert cfg.n_steps == 20

    def run(state: State, signs: np.ndarray) -> State:
        for j in range(cfg.n_steps):
            state = em_step(state, cfg.dt, signs * path.w1(j), path.w2(j), cache, cfg)
        return state

    def rel(a, b):
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    plain = np.ones(cfg.mode_count)
    signs = np.array([(-1.0) ** (wav[axis] + 1) * (-1.0 if comp == axis else 1.0)
                      for _, wav, comp in _mode_table(grid, cfg.mode_count)])
    y0 = initial_state(cfg, grid)
    end = run(y0, plain)

    mirrored = run(_reflect(y0, axis), signs)
    assert rel(mirrored.v, _reflect(end, axis).v) <= 1e-12
    assert rel(mirrored.d, _reflect(end, axis).d) <= 1e-12

    unsigned = run(_reflect(y0, axis, negate=False), signs)
    assert rel(unsigned.v, _reflect(end, axis, negate=False).v) > 1e-1
    unsigned_noise = run(_reflect(y0, axis), plain)
    assert rel(unsigned_noise.v, _reflect(end, axis).v) > 1e-5


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


def test_picard_first_sweep_matches_manual_operator_composition_bitwise():
    """One sweep is the EM composition with drift and noise at the zeroth
    iterate (free exact evolution of y0), scaled by the cutoff of that
    iterate's running path norm, and closed by the exact velocity semigroup."""
    cfg = _cfg(scheme="picard", horizon=6e-3, max_iterations=1)
    grid = cfg.grid()
    cache = _cache(cfg)
    y0 = initial_state(cfg, grid)
    n, dt = cfg.n_steps, cfg.dt
    path = sample_path(3, 0, dt, n, cfg.mode_count)

    zeroth = [(y0.v, y0.d)]
    for _ in range(n):
        v, d = zeroth[-1]
        zeroth.append((semigroup_velocity_exact(grid, v, dt), semigroup_director(grid, d, dt)))
    xt, sup_sq, int_sq = [], 0.0, 0.0
    for v, d in zeroth:
        summ = spectral_summary(State(grid, v, d, 0.0))
        sup_sq = max(sup_sq, summ["v_norm"] * summ["v_norm"])
        xt.append(float(np.sqrt(sup_sq + int_sq)))
        int_sq += summ["e_norm"] * summ["e_norm"] * dt
    # a radius inside the path norm, so the cutoff scales the later nodes
    cfg = dataclasses.replace(cfg, truncation_radius=0.75 * xt[-1])

    nodes, stats = picard_solve(cache, cfg, y0, path, 0, n)

    assert stats.iterations == 1 and stats.min_theta < 1.0
    v, d = y0.v, y0.d
    for j in range(n):
        pv, pd = zeroth[j]
        theta = theta_cutoff(xt[j], cfg.truncation_radius)
        dv = -leray_project(grid, b1(grid, pv, pv) + ericksen_divergence(grid, pd, pd))
        dd = -assemble_L(cache, pd)
        dd = dd - b2(grid, pv, pd)
        dd = dd - f_penalty(pd, cache.eps)
        d_star = d + theta * dt * dd + theta * director_noise_increment(cache, pd, path.w2(j))
        v_star = v + theta * dt * dv + theta * velocity_noise_increment(cache, pv, path.w1(j))
        d = semigroup_director(grid, d_star, dt)
        v = semigroup_velocity_exact(grid, v_star, dt)
        assert np.array_equal(nodes[j + 1].d, d), j
        assert np.array_equal(nodes[j + 1].v, v), j


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


def test_truncated_solutions_glue_until_the_path_norm_crosses_the_radius():
    """The paper's maximal solution glues fixed points of the equation
    truncated at N: they agree with the untruncated one until the path norm
    from t = 0 crosses N.  On this window the norm rises from 21.08 at node
    0 to 26.63 at node 32.  At N, its value at node 16, theta first drops
    below 1 at node 17, so nodes 0..17 keep every bit and node 18 moves; at
    2N nothing moves.  A knee moved to 2N (3 - x/N) or to 0 (1 - x/N) fails."""
    cfg = _cfg(scheme="picard", dt=2.0**-10, horizon=2.0**-5, window=2.0**-5,
               velocity_amplitude=4.0)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(0, 0, cfg.dt, 32, cfg.mode_count)

    free, stats_free = picard_solve(cache, cfg, y0, path, 0, 32)
    assert stats_free.converged and stats_free.min_theta == 1.0
    xt = integrators._xt_norms([integrators._ve_norms(s) for s in free], cfg.dt)
    assert (xt[0], xt[16], xt[32]) == pytest.approx((21.080, 25.533, 26.627), abs=5e-4)

    n = float(xt[16])
    cut, stats_n = picard_solve(cache, dataclasses.replace(cfg, truncation_radius=n),
                                y0, path, 0, 32)
    wide, stats_2n = picard_solve(cache, dataclasses.replace(cfg, truncation_radius=2.0 * n),
                                  y0, path, 0, 32)
    assert stats_n.converged and stats_2n.converged
    assert stats_n.iterations == stats_2n.iterations == stats_free.iterations
    assert stats_n.min_theta == pytest.approx(0.95598, abs=1e-5)
    assert stats_2n.min_theta == 1.0
    same = [np.array_equal(a.v, b.v) and np.array_equal(a.d, b.d) for a, b in zip(free, cut)]
    assert same.index(False) == 18
    for a, b in zip(free, wide):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.d, b.d)


def test_picard_respects_frozen_velocity():
    cfg = _cfg(scheme="picard", horizon=4e-3, freeze_velocity=True)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(4, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    nodes, _ = picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)
    for node in nodes:
        assert np.array_equal(node.v, y0.v)


def _full_sweep_picard(cache, cfg, y0, path, start_step, n):
    """The full-sweep Picard iteration, kept as the oracle of picard_solve:
    every sweep recomputes every node, and the previous iterate, the current
    one and their differences are all held at once."""
    grid, dt = cache.grid, path.dt

    def xt_norms(states):
        summs = [spectral_summary(s) for s in states]
        vs = [s["v_norm"] for s in summs]
        es = [s["e_norm"] for s in summs]
        run_sup = np.maximum.accumulate(np.square(vs))
        run_int = np.concatenate([[0.0], np.cumsum(np.square(es[:-1]) * dt)])
        return np.sqrt(run_sup + run_int)

    prev = [y0]
    for j in range(n):
        v, d = prev[-1].v, prev[-1].d
        if not cfg.freeze_velocity:
            v = semigroup_velocity_exact(grid, v, dt)
        if cfg.director_diffusion:
            d = semigroup_director(grid, d, dt)
        prev.append(State(grid, v, d, y0.t + (j + 1) * dt))
    distances, converged, min_theta = [], False, 1.0
    for _ in range(cfg.max_iterations):
        xt = xt_norms(prev)
        cur = [y0]
        for j in range(n):
            theta = theta_cutoff(float(xt[j]), cfg.truncation_radius)
            min_theta = min(min_theta, theta)
            cur.append(_step(cur[-1], prev[j], dt, path.w1(start_step + j),
                             path.w2(start_step + j), cache, cfg, theta,
                             semigroup_velocity_exact))
        diffs = [State(grid, a.v - b.v, a.d - b.d, a.t) for a, b in zip(cur, prev)]
        distances.append(float(xt_norms(diffs)[-1]))
        prev = cur
        norm = float(xt[-1])
        if (math.isfinite(distances[-1]) and math.isfinite(norm)
                and distances[-1] <= cfg.tolerance * max(1.0, norm)):
            converged = True
            break
    ratios = [distances[m] / distances[m - 1]
              for m in range(1, len(distances)) if distances[m - 1] > 0.0]
    return prev, len(distances), converged, min_theta, distances, ratios


# the initial vortex of these grids has |y0|_V about 12, so a radius of 10
# engages the cutoff on every node without switching the drift off
_PICARD_CASES = {
    "16x16": dict(horizon=8e-3),
    "16x16-cutoff": dict(horizon=8e-3, truncation_radius=10.0),
    "8x8x16": dict(n_dim=3, cells=(8, 8, 16), lengths=(1.0, 1.0, 1.0), horizon=6e-3),
}

# velocity amplitude 1e152 overflows the path norm of the first window
_OVERFLOW = dict(horizon=8e-3, window=4e-3, velocity_amplitude=1e152,
                 truncation_radius=1e300, thresholds=(float("inf"),), max_iterations=6)


@pytest.mark.parametrize("overrides", [
    *_PICARD_CASES.values(),
    dict(horizon=8e-3, max_iterations=3),
    dict(_OVERFLOW, horizon=4e-3),
    dict(_OVERFLOW, horizon=4e-3, velocity_amplitude=1e308),  # overflows y0 itself
], ids=[*_PICARD_CASES, "16x16-max_iterations-3", "16x16-non-finite", "16x16-non-finite-y0"])
def test_picard_solve_matches_the_full_sweep_oracle_bitwise(overrides, monkeypatch):
    cfg = _cfg(scheme="picard", **overrides)
    n = cfg.n_steps
    cache = _cache(cfg)
    path = sample_path(5, 0, cfg.dt, n, cfg.mode_count)
    steps = []
    monkeypatch.setattr(integrators, "_step", lambda *args: steps.append(1) or _step(*args))

    with np.errstate(all="ignore"):
        y0 = initial_state(cfg, cache.grid)
        nodes, stats = picard_solve(cache, cfg, y0, path, 0, n)
        ref, iterations, converged, min_theta, distances, ratios = _full_sweep_picard(
            cache, cfg, y0, path, 0, n)

    assert [(a.v.tobytes(), a.d.tobytes(), a.t) for a in nodes] == \
        [(b.v.tobytes(), b.d.tobytes(), b.t) for b in ref]
    assert (stats.iterations, stats.converged) == (iterations, converged)
    assert repr(stats.min_theta) == repr(min_theta)
    assert [repr(x) for x in stats.distances] == [repr(x) for x in distances]
    assert [repr(x) for x in stats.ratios] == [repr(x) for x in ratios]
    # each case reaches the branch it is named for
    if "velocity_amplitude" in overrides:
        finite = [bool(np.all(np.isfinite(s.v))) for s in nodes]
        assert finite[0] == (overrides["velocity_amplitude"] < 1e300) and not all(finite)
        if not finite[0]:
            assert len(steps) == iterations * n  # no node is skipped after a non-finite y0
    else:
        # sweep s + 1 starts after the s + 1 final nodes, and always steps to node n
        assert len(steps) == sum(n - min(s, n - 1) for s in range(iterations))
    if "truncation_radius" in overrides and "velocity_amplitude" not in overrides:
        assert 0.0 < min_theta < 1.0
    if overrides.get("max_iterations") == 3:
        assert not converged


@pytest.mark.parametrize("overrides", _PICARD_CASES.values(), ids=_PICARD_CASES)
def test_picard_terminates_at_the_exponential_euler_recursion(overrides):
    """After sweep m, nodes 0..m are final, so sweep n_win + 1 reproduces the
    whole window and its distance is exactly zero.  The fixed point is the
    recursion u_{j+1} = _step(u_j, u_j, theta_j) with the exact velocity
    semigroup, theta_j read from the running path norm of u_0..u_j."""
    cfg = _cfg(scheme="picard", tolerance=1e-300, **overrides)
    n = cfg.n_steps
    cache = _cache(cfg)
    grid, dt = cache.grid, cfg.dt
    y0 = initial_state(cfg, grid)
    path = sample_path(3, 0, dt, n, cfg.mode_count)

    nodes, stats = picard_solve(cache, dataclasses.replace(cfg, max_iterations=n + 1),
                                y0, path, 0, n)
    assert stats.converged and stats.iterations == n + 1
    assert stats.distances[-1] == 0.0

    u, sup_sq, int_sq, thetas = y0, 0.0, 0.0, []
    for j in range(n):
        summ = spectral_summary(u)
        sup_sq = max(sup_sq, summ["v_norm"] * summ["v_norm"])
        thetas.append(theta_cutoff(float(np.sqrt(sup_sq + int_sq)), cfg.truncation_radius))
        int_sq += summ["e_norm"] * summ["e_norm"] * dt
        u = _step(u, u, dt, path.w1(j), path.w2(j), cache, cfg, thetas[-1],
                  semigroup_velocity_exact)
        assert nodes[j + 1].v.tobytes() == u.v.tobytes(), j
        assert nodes[j + 1].d.tobytes() == u.d.tobytes(), j
    assert (min(thetas) < 1.0) == ("truncation_radius" in overrides)

    _, short = picard_solve(cache, dataclasses.replace(cfg, max_iterations=n), y0, path, 0, n)
    assert not short.converged and short.distances[-1] > 0.0


def test_picard_window_with_an_overflowing_distance_does_not_converge():
    """An overflowed path norm makes the convergence scale infinite, which
    must not accept an infinite distance: the window runs out of sweeps.
    The trajectory ends at step 0 before solving it, since the initial
    state's norms have already overflowed."""
    cfg = _cfg(scheme="picard", **_OVERFLOW)
    cache = _cache(cfg)
    path = sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            y0 = initial_state(cfg, cache.grid)
            _, window = picard_solve(cache, cfg, y0, path, 0, 4)
            rec = run_trajectory(cfg, path=path)
    assert not window.converged and window.iterations == cfg.max_iterations
    assert window.distances[0] == float("inf")
    assert rec.status == "numerical_failure"
    assert (rec.steps_completed, rec.windows) == (0, [])
    assert np.all(np.isfinite(rec.terminal.v)) and "e_norm" in rec.non_finite


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc above the level at the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _iterate_bytes(cfg: SimConfig, n: int) -> int:
    """Bytes of one iterate's (or window's) n + 1 nodes."""
    cells = int(np.prod(cfg.cells))
    return (n + 1) * (cfg.n_dim + 3) * cells * 8


def test_picard_solve_keeps_one_iterate_alive():
    # a full-sweep iteration holds two iterates and their differences
    cfg = _cfg(scheme="picard", cells=(32, 32), horizon=0.032)
    cache = _cache(cfg)
    y0 = initial_state(cfg, cache.grid)
    path = sample_path(0, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    picard_solve(cache, cfg, y0, path, 0, cfg.n_steps)  # warm every per-grid table

    peak = _traced_peak(lambda: picard_solve(cache, cfg, y0, path, 0, cfg.n_steps))
    assert peak <= 1.5 * _iterate_bytes(cfg, cfg.n_steps)


def test_picard_trajectory_holds_one_window_at_a_time():
    cfg = _cfg(scheme="picard", cells=(32, 32), horizon=0.096, window=0.032)
    run_trajectory(dataclasses.replace(cfg, horizon=0.032))  # warm every per-grid table

    peak = _traced_peak(lambda: run_trajectory(cfg))
    assert peak <= 1.6 * _iterate_bytes(cfg, 32)


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
    # both schemes share the stopping rule: the crossing at t = 0 still takes one step
    for scheme in ("em", "picard"):
        cfg = _cfg(thresholds=(1e-12,), record_every=5, scheme=scheme, window=4e-3)
        rec = run_trajectory(cfg)
        assert rec.status == "stopped_at_tau", scheme
        assert rec.tau_hits == {1e-12: 0.0}      # nonzero initial data crosses at t = 0
        assert rec.steps_completed == 1, scheme
        # the halt row is forced into the record even off-cadence
        np.testing.assert_allclose(rec.times, [0.0, cfg.dt])


def test_trajectory_logs_lower_thresholds_without_halting():
    cfg = _cfg(thresholds=(1e-12, 1e12))
    rec = run_trajectory(cfg)
    assert rec.status == "completed"
    assert rec.tau_hits == {1e-12: 0.0}


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
    assert rec.non_finite          # the terminal node's fields or, where finite, its norms
    assert "advective CFL exceeded" in caplog.text


def test_picard_trajectory_warns_on_advective_cfl(caplog):
    # the exact semigroups keep this run finite, but the CFL number of the
    # initial vortex is far above one, and Picard runs the same check as EM
    cfg = _cfg(scheme="picard", dt=1.0, horizon=3.0, window=1.0, velocity_amplitude=1e4,
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
    assert rec.non_finite == ("v",)


def test_a_node_whose_summary_overflows_ends_the_trajectory_unrecorded():
    """On this 8^3 blow-up the fields at step 7 are still finite but their
    norms overflow: that node ends the trajectory without a row, and the
    failure names the summary entries, since no field is non-finite."""
    cfg = _cfg(n_dim=3, cells=(8, 8, 8), lengths=(1.0, 1.0, 1.0), dt=1.0, horizon=10.0,
               velocity_amplitude=1e4, thresholds=(float("inf"),))
    rec = run_trajectory(cfg)
    assert rec.status == "numerical_failure"
    assert rec.steps_completed == 7
    assert np.all(np.isfinite(rec.terminal.v)) and np.all(np.isfinite(rec.terminal.d))
    assert rec.non_finite and set(rec.non_finite) <= set(rec.terminal.summary)
    assert "l2_v" in rec.non_finite
    np.testing.assert_array_equal(rec.times, np.arange(7.0))
    for key in rec.terminal.summary:
        assert np.all(np.isfinite(rec.series[key])), key


def test_trajectory_snapshot_sink_follows_configured_cadence():
    seen: list[int] = []
    cfg = _cfg(horizon=12e-3, snapshot_every=5)
    run_trajectory(cfg, snapshot_sink=lambda j, s: seen.append(j))
    assert seen == [0, 5, 10]

    seen.clear()
    cfg_off = _cfg(horizon=12e-3)           # snapshot_every = 0 is off
    run_trajectory(cfg_off, snapshot_sink=lambda j, s: seen.append(j))
    assert seen == []


def test_trajectory_picard_scheme_reports_window_stats():
    cfg = _cfg(scheme="picard", horizon=16e-3, window=4e-3)
    rec = run_trajectory(cfg)
    assert rec.status == "completed"
    assert rec.non_finite == ()
    assert rec.steps_completed == 16
    assert len(rec.windows) == 4
    assert all(w.converged for w in rec.windows)
    assert all(w.min_theta == 1.0 for w in rec.windows)
    assert len(rec.times) == 17


# ---------------------------------------------------------------------------
# adaptedness: a node never reads the future of its Brownian path
# ---------------------------------------------------------------------------

def _perturbed(path, k: int, factor: float):
    """The path with every increment from step k on multiplied by factor."""
    inc = path.increments.copy()
    inc[k:] *= factor
    return dataclasses.replace(path, increments=inc)


def _node_stream(cfg: SimConfig, path) -> tuple[integrators.TrajectoryRecord, list[State]]:
    """The trajectory's record and every one of its nodes."""
    nodes: list[State] = []
    rec = run_trajectory(dataclasses.replace(cfg, snapshot_every=1), path=path,
                         snapshot_sink=lambda j, s: nodes.append(s))
    return rec, nodes


def test_em_nodes_do_not_read_later_increments():
    """Node k of Euler-Maruyama is a function of the increments before step
    k: scaling every increment from step k on leaves nodes 0..k bitwise
    equal, while node k + 1, which reads increment k, moves."""
    cfg = _cfg(horizon=12e-3)
    path = sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    _, base = _node_stream(cfg, path)
    assert len(base) == cfg.n_steps + 1
    for k in (0, 1, 5, 11):
        for factor in (40.0, -1.0, 0.0):
            _, nodes = _node_stream(cfg, _perturbed(path, k, factor))
            for j in range(k + 1):
                assert nodes[j].v.tobytes() == base[j].v.tobytes(), (k, factor, j)
                assert nodes[j].d.tobytes() == base[j].d.tobytes(), (k, factor, j)
            assert not np.array_equal(nodes[k + 1].v, base[k + 1].v), (k, factor)


def _halting_thresholds(blowup: np.ndarray, after: int) -> tuple[tuple[float, float], int]:
    """Two thresholds: the lower first crossed at step 1, the higher first
    crossed at the first step past ``after`` that sets a new running maximum
    of the blowup series; and that step."""
    peak = np.maximum.accumulate(blowup)
    h = next(j for j in range(after + 1, len(blowup)) if blowup[j] > peak[j - 1])
    low = 0.5 * (blowup[0] + blowup[1])
    assert blowup[1] > blowup[0]
    return (float(low), float(0.5 * (peak[h - 1] + blowup[h]))), h


@pytest.mark.parametrize("scheme", ["em", "picard"])
def test_stopping_time_ignores_increments_after_the_halt(scheme):
    """tau_N is a stopping time: with the velocity growing from rest under
    the noise, the threshold hits and the halting step stay the same when
    the increments from the halting step on are changed.  For Picard the
    halting node's window still sees them, through its sweep count only."""
    cfg = _cfg(scheme=scheme, window=4e-3, horizon=16e-3, velocity_profile="zero",
               director_profile="uniform", thresholds=(float("inf"),))
    path = sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    thresholds, h = _halting_thresholds(run_trajectory(cfg, path=path).series["blowup"], 5)
    cfg = dataclasses.replace(cfg, thresholds=thresholds)
    ref = run_trajectory(cfg, path=path)
    assert (ref.status, ref.steps_completed) == ("stopped_at_tau", h)
    assert list(ref.tau_hits) == list(thresholds)
    for factor in (40.0, 0.0):
        rec = run_trajectory(cfg, path=_perturbed(path, h, factor))
        assert (rec.status, rec.steps_completed) == ("stopped_at_tau", h), factor
        assert rec.tau_hits == ref.tau_hits, factor


def test_picard_nodes_read_later_increments_only_through_the_sweep_count():
    """Node k of a Picard window is a function of the increments before step
    k up to the window's tolerance.  Sweep m fixes node m, so nodes up to
    the fewer of the two runs' sweep counts stay bitwise; the stopping rule
    reads the whole window, so when scaling the increments from step k on
    changes the sweep count, the nodes between that prefix and k move
    within the tolerance.  Measured on 16^2, dt 2^-10, one 32-step window,
    k = 24: x40 takes 15 sweeps against 9 and moves nodes 10..24 by at most
    2.4e-12 of their V-norm, against the tolerance 1e-9; x-1 keeps 9
    sweeps and nodes 0..24 bitwise."""
    dt = 2.0**-10
    cfg = _cfg(scheme="picard", dt=dt, horizon=32 * dt, window=32 * dt)
    path = sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count)
    rec, base_nodes = _node_stream(cfg, path)
    base = rec.windows[0].iterations
    k = 24
    for factor, moved in ((40.0, True), (-1.0, False)):
        rec, nodes = _node_stream(cfg, _perturbed(path, k, factor))
        assert rec.windows[0].converged, factor
        sweeps = rec.windows[0].iterations
        assert (sweeps != base) == moved, (factor, sweeps, base)
        fixed = min(sweeps, base, k) if moved else k
        for j in range(fixed + 1):
            assert nodes[j].v.tobytes() == base_nodes[j].v.tobytes(), (factor, j)
            assert nodes[j].d.tobytes() == base_nodes[j].d.tobytes(), (factor, j)
        for j in range(fixed + 1, k + 1):
            a, b = nodes[j], base_nodes[j]
            gap = spectral_summary(State(a.grid, a.v - b.v, a.d - b.d))["v_norm"]
            assert 0.0 < gap <= cfg.tolerance * max(1.0, b.summary["v_norm"]), (factor, j)
        assert not np.array_equal(nodes[k + 1].v, base_nodes[k + 1].v), factor


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


def _block_means(u: np.ndarray, cells: int) -> np.ndarray:
    """Restrict a field on a square grid to cells x cells by block means."""
    b = u.shape[-1] // cells
    return u.reshape(*u.shape[:-2], cells, b, cells, b).mean(axis=(-3, -1))


def test_em_converges_at_second_order_in_space():
    """Without noise, the terminal fields on 16^2, 32^2 and 64^2 approach the
    128^2 run, restricted by block means, at the centered stencils' second
    order.  Measured: L2 errors of (v, d) 1.6e-3, 4.0e-4 and 8.2e-5, pairwise
    orders 2.01 and 2.30 (the last one inflated by a reference only 2x finer).
    The band [1.8, 2.6] leaves 0.21 below the first and 0.30 above the second.
    A sign-flipped low-edge ghost in centered_diff blows the runs up before
    the horizon."""

    def terminal(cells: int) -> State:
        cfg = _cfg(cells=(cells, cells), dt=2.0**-12, horizon=2.0**-5, sigma=0.0,
                   magnetic_amplitude=0.0, record_every=128)
        rec = run_trajectory(cfg)
        assert rec.status == "completed"
        return rec.terminal

    ref = terminal(128)
    errors = []
    for cells in (16, 32, 64):
        s = terminal(cells)
        dv = s.v - _block_means(ref.v, cells)
        dd = s.d - _block_means(ref.d, cells)
        errors.append(math.sqrt((np.sum(dv * dv) + np.sum(dd * dd)) / cells**2))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert errors[0] <= 3.2e-3, errors          # 2x the measured 1.6e-3
    assert all(1.8 <= p <= 2.6 for p in orders), (errors, orders)


def test_em_dissipates_the_energy_its_law_prescribes():
    """Without noise, E(T) - E(0) + int_0^T (|A^{1/2} v|^2 + |Delta d - f(d)|^2)
    dt = 0 for the Ginzburg-Landau energy E, the functional behind the 2D
    nonexplosion argument.  The residual R of the recorded series, its
    integral by the trapezoid rule, falls at EM's first order and its
    Richardson extrapolation 2 R(dt/2) - R(dt) vanishes.  Measured on 32^2 to
    the horizon 2^-5 with velocity amplitude 4, relative to the dissipated
    energy: R = 8.1e-2, 4.2e-2, 2.1e-2, 1.1e-2 at dt 2^-8..2^-11, slope 0.97,
    extrapolated 3.7e-4.  Slopes and extrapolated values of drift mutants:
    ericksen_divergence x2 2.08 and -9.9e-3, b2 sign-flipped 0.54 and
    +2.2e-2, f_penalty x2 0.73 and +9.1e-3, b2 x1.1 0.93 and +1.6e-3.  A
    factor on b1 moves neither, since b1 is exactly energy-neutral."""
    steps = [2.0**-e for e in (8, 9, 10, 11)]
    residuals = []
    for dt in steps:
        cfg = _cfg(cells=(32, 32), dt=dt, horizon=2.0**-5, sigma=0.0,
                   magnetic_amplitude=0.0, velocity_amplitude=4.0)
        rec = run_trajectory(cfg)
        assert rec.status == "completed"
        rate = rec.series["a_half_v"] ** 2 + rec.series["psi"]
        dissipated = float(np.sum(0.5 * (rate[1:] + rate[:-1]) * np.diff(rec.times)))
        energy = rec.series["gl_energy"]
        residuals.append((energy[-1] - energy[0] + dissipated) / dissipated)
    slope = float(np.polyfit(np.log(steps), np.log(np.abs(residuals)), 1)[0])
    extrapolated = 2.0 * residuals[-1] - residuals[-2]
    assert 0.9 <= slope <= 1.1, (residuals, slope)
    assert abs(extrapolated) <= 1e-3, residuals   # 2.7x the measured 3.7e-4


def test_run_ensemble_is_the_same_serial_and_pooled():
    """Two trajectories in this process and over two processes give equal
    records, to the byte, down to the terminal fields."""
    cfg = _cfg(trajectories=2)
    serial, pooled = run_ensemble(cfg, 1), run_ensemble(cfg, 2)
    assert [r.trajectory for r in serial] == [r.trajectory for r in pooled] == [0, 1]
    for a, b in zip(serial, pooled):
        assert (a.status, a.steps_completed) == (b.status, b.steps_completed)
        assert a.times.tobytes() == b.times.tobytes()
        for k in SERIES_KEYS:
            assert a.series[k].tobytes() == b.series[k].tobytes(), k
        assert a.terminal.v.tobytes() == b.terminal.v.tobytes()
        assert a.terminal.d.tobytes() == b.terminal.d.tobytes()


def test_trajectory_rejects_mismatched_path_mode_count():
    cfg = _cfg()
    bad = sample_path(cfg.seed, 0, cfg.dt, cfg.n_steps, cfg.mode_count + 1)
    with pytest.raises(ValueError):
        run_trajectory(cfg, path=bad)


def test_picard_window_must_be_a_whole_number_of_the_path_steps():
    # the config's dt divides its window, but this path's 3e-3 steps do not
    cfg = _cfg(scheme="picard", window=4e-3, horizon=12e-3)
    path = sample_path(cfg.seed, 0, 3e-3, 4, cfg.mode_count)
    with pytest.raises(ConfigError, match="picard window/dt must be an integer"):
        run_trajectory(cfg, path=path)
