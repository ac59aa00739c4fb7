"""Acceptance gate: nine statements this package certifies, one test each.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test pins its own tolerances, and can be re-run alone.
Criteria 1, 2 and 8 share one cached ``probe_suite(seed=0)``, the suite
``slcsim probes`` runs, and assert their own bounds on its values.  The
ensemble criterion runs its trajectories on every core through
``integrators.run_ensemble``, the driver ``slcsim ensemble`` runs, and it
dominates the runtime (about 3 minutes on a 2-core box); everything else is
seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np
import pytest

from slcsim.cli import main
from slcsim.config import SimConfig
from slcsim.diagnostics import (
    ensemble_energy_bound,
    max_principle_gap,
    probe_suite,
    richardson_order,
)
from slcsim.fields import spectral_summary
from slcsim.grid import (
    build_grid,
    cosine_transform,
    inverse_cosine_transform,
    inverse_sine_transform,
    sine_transform,
)
from slcsim.integrators import (
    contraction_slopes,
    em_step,
    initial_state,
    picard_solve,
    run_ensemble,
    run_trajectory,
)
from slcsim.noise import refine, sample_path
from slcsim.operators import OperatorCache


@functools.cache
def _probe_values() -> dict[str, float]:
    """Each probe's value by name, from ``probe_suite(seed=0)`` without the
    contraction probe.  Only values are read: a band widened in the suite
    cannot widen a criterion's bound."""
    return {p.name: p.value for p in probe_suite(seed=0)}


def test_criterion_1_operator_identity_suite():
    """Energy neutrality of both advection forms, worst pairing over 100
    random smooth fields at 32^2 relative to its trilinear bound, and
    exactness of the Leray projection, worst over 20 fields."""
    values = _probe_values()
    for name in ("b1_skew_symmetry", "b2_skew_symmetry"):
        assert values[name] <= 1e-11, f"{name}: {values[name]}"
    for name in ("leray_idempotence", "leray_gradient_annihilation"):
        assert values[name] <= 1e-10, f"{name}: {values[name]}"


def test_criterion_2_duality_consistency_order():
    """The transport-against-Laplacian pairing gap is pure discretization
    error and must vanish at second order across 16/32/64.  The gap is
    averaged over eight field pairs per grid; a single pair at 16^2 still
    carries pre-asymptotic scatter."""
    order = _probe_values()["duality_order"]
    assert 1.7 <= order <= 2.3, f"order {order}"


def test_criterion_3_maximum_principle_propagates():
    """Noisy default run at 64^2, horizon 1: starting inside the unit ball,
    the director never develops excess magnitude."""
    cfg = SimConfig()                           # |d0| = 0.9 <= 1 everywhere
    assert max_principle_gap(cfg.grid(), initial_state(cfg, cfg.grid()).d) == 0.0
    rec = run_trajectory(cfg)
    assert rec.status == "completed"
    worst = float(np.max(rec.series["max_gap"]))
    assert worst <= 1e-6, f"max excess {worst}"


def test_criterion_4_stratonovich_correction_scales_linearly():
    """Pure-rotation runs: the mean drift of |d|^2 per unit time is the
    half-square correction's dt^2 residue and must scale like dt under
    dt -> dt/2 -> dt/4.

    The martingale part |d x h|^2 (dW^2 - dt) is subtracted path by path as
    a control variate (computed here with raw cross products from observed
    states), which removes the O(sqrt(dt)) scatter that would otherwise
    need thousands of paths to average away.  The remainder must also be
    strictly positive: a doubled correction would flip nothing on a
    slope-only check, but cannot fake the sign and size together."""
    cfg = SimConfig(
        n_dim=2, cells=(32, 32), lengths=(1.0, 1.0), dt=1e-3, horizon=0.256,
        mode_count=8, freeze_velocity=True, director_diffusion=False,
        enable_penalty=False, enable_transport=False,
    )
    grid = cfg.grid()
    cache = OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
    h = cache.h_field
    rates = []
    for level in range(3):
        per_path = []
        for k in range(8):
            path = sample_path(11, k, 1e-3, 256, cfg.mode_count)
            for _ in range(level):
                path = refine(path)
            state = initial_state(cfg, grid)
            resid = np.zeros(grid.cells)
            for j in range(path.n_steps):
                dw2 = path.w2(j)
                nxt = em_step(state, path.dt, path.w1(j), dw2, cache, cfg)
                rot = np.cross(state.d, h, axis=0)
                martingale = np.sum(rot**2, axis=0) * (dw2**2 - path.dt)
                resid += np.sum(nxt.d**2, axis=0) - np.sum(state.d**2, axis=0) - martingale
                state = nxt
            per_path.append(float(np.mean(resid)) / cfg.horizon)
        assert all(r > 0.0 for r in per_path), per_path
        rates.append(float(np.mean(per_path)))
    slope = richardson_order(rates, [1e-3, 5e-4, 2.5e-4])
    assert 0.7 <= slope <= 1.3, f"slope {slope}, rates {rates}"


def test_criterion_5_fixed_point_machinery():
    """Picard converges below tolerance within the iteration budget on a
    2^-4 window of the default configuration; the contraction ratio scales
    with the window length at the expected rate; a slack truncation radius
    is exactly inert."""
    cfg = SimConfig(dt=2.0**-10)
    grid = cfg.grid()
    cache = OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
    y0 = initial_state(cfg, grid)
    path = sample_path(cfg.seed, 0, cfg.dt, 64, cfg.mode_count)   # T_w = 2^-4

    nodes, stats = picard_solve(cache, cfg, y0, path, 0, 64)
    assert stats.converged and stats.iterations <= cfg.max_iterations
    assert stats.min_theta == 1.0

    wide = dataclasses.replace(cfg, truncation_radius=2.0 * cfg.truncation_radius)
    nodes_w, stats_w = picard_solve(cache, wide, y0, path, 0, 64)
    assert stats_w.min_theta == 1.0
    v_a = spectral_summary(nodes[-1])["v_norm"]
    v_b = spectral_summary(nodes_w[-1])["v_norm"]
    assert abs(v_a - v_b) <= cfg.tolerance

    slope, ratios = contraction_slopes(SimConfig(), (0.015625, 0.03125, 0.0625))
    assert 0.15 <= slope <= 0.35, f"slope {slope}, ratios {ratios}"


def test_criterion_6_scheme_cross_oracle():
    """EM and Picard on the identical Brownian realization (finer levels
    consume bridge refinements of one coarse path): terminal velocity norms
    within 2%, and the gap shrinks under joint dt/window refinement.  The
    director amplitude is kept small so the comparison exercises the part
    where the schemes actually differ — the velocity linear solve."""
    cfg0 = SimConfig(
        n_dim=2, cells=(32, 32), lengths=(1.0, 1.0), dt=4e-3, horizon=0.1,
        velocity_amplitude=1.0, director_amplitude=0.2,
        sigma=0.05, magnetic_amplitude=0.5,
    )
    path = sample_path(cfg0.seed, 0, cfg0.dt, cfg0.n_steps, cfg0.mode_count)
    diffs = []
    for dt, window in ((4e-3, 0.048), (2e-3, 0.024), (1e-3, 0.012)):
        if abs(dt - path.dt) > 1e-15:
            path = refine(path)
        cfg_em = dataclasses.replace(cfg0, dt=dt)
        cfg_pi = dataclasses.replace(cfg0, dt=dt, scheme="picard", window=window)
        a = run_trajectory(cfg_em, path=path)
        b = run_trajectory(cfg_pi, path=path)
        assert a.status == "completed" and b.status == "completed"
        v_em = spectral_summary(a.terminal)["v_norm"]
        v_pi = spectral_summary(b.terminal)["v_norm"]
        diffs.append(abs(v_em - v_pi) / v_em)
    assert diffs[0] <= 0.02, f"coarse-level gap {diffs[0]}"
    assert diffs[0] > diffs[1] > diffs[2], f"gaps not decreasing: {diffs}"


@pytest.mark.slow
def test_criterion_7_nonexplosion_ensemble():
    """64 trajectories at the 2D defaults, horizon 1: no stopping-threshold
    hits at level 1000, and the fitted exponential growth constant of the
    mean energy is finite and seed-stable.  At these defaults the mean
    energy decays, so the honest fit is C = 0 and stability is judged
    against an absolute floor rather than a 0/0 relative error."""
    fits = []
    for seed in (0, 1):
        cfg = SimConfig(seed=seed, record_every=5, trajectories=64)
        records = run_ensemble(cfg, os.cpu_count() or 1)
        assert all(r.status == "completed" for r in records)
        assert all(not r.tau_hits for r in records)      # tau_1000 never hit
        fits.append(ensemble_energy_bound(records))
    c1, c2 = fits[0].c_growth, fits[1].c_growth
    assert np.isfinite(c1) and np.isfinite(c2)
    assert fits[0].violation_count == 0 and fits[1].violation_count == 0
    assert abs(c1 - c2) <= max(0.2 * max(c1, c2), 0.05), f"c_growth {c1} vs {c2}"


def test_criterion_8_inequality_probe_stability():
    """Interpolation-ratio constants stable within 2x across 16 -> 64
    refinement, the second-derivative bound constant within 2x, and the
    drift Lipschitz estimate within 3x across a x{0.5, 1, 2} amplitude
    sweep (each the largest over the smallest of its maxima)."""
    values = _probe_values()
    for name in ("gn_l4_refinement_stability", "gn_linf_refinement_stability",
                 "remark_bound_stability"):
        assert values[name] <= 2.0, f"{name}: {values[name]}"
    lipschitz = values["lipschitz_amplitude_stability"]
    assert lipschitz <= 3.0, f"lipschitz: {lipschitz}"


def test_criterion_9_infrastructure_determinism(tmp_path):
    """Byte-identical outputs for repeated (config, seed); bridge refinement
    reproduces parent increments to a single rounding of the child scale;
    transform round-trips at 1e-12."""
    # same (config, seed) twice through the library: identical arrays
    cfg = SimConfig(n_dim=2, cells=(16, 16), lengths=(1.0, 1.0),
                    dt=1e-3, horizon=5e-3, mode_count=8)
    a, b = run_trajectory(cfg), run_trajectory(cfg)
    assert np.array_equal(a.terminal.v, b.terminal.v)
    assert np.array_equal(a.terminal.d, b.terminal.d)
    assert np.array_equal(a.times, b.times)

    # ... and through the CLI: identical bytes on disk
    ini = tmp_path / "c.ini"
    ini.write_text("[grid]\ncells = 16 16\n\n[time]\nhorizon = 0.005\n\n"
                   "[velocity_noise]\nmode_count = 8\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(ini), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(ini), "--out", str(out_b)]) == 0
    for name in ("manifest.json", "trajectory_000000.csv", "run.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # bridge refinement: halved step, doubled count, same horizon, pair sums
    # equal to the parents up to one rounding of the child magnitude
    coarse = sample_path(9, 0, 1e-3, 64, 8)
    fine = refine(coarse)
    assert fine.dt == coarse.dt / 2.0 and fine.n_steps == 2 * coarse.n_steps
    assert fine.horizon == pytest.approx(coarse.horizon, rel=1e-15)
    pair = fine.increments[0::2] + fine.increments[1::2]
    scale = np.maximum.reduce([
        np.abs(fine.increments[0::2]), np.abs(fine.increments[1::2]),
        np.abs(coarse.increments),
    ])
    ulps = np.abs(pair - coarse.increments) / (np.maximum(scale, 1e-300) * np.finfo(float).eps)
    assert float(np.max(ulps)) <= 2.0
    again = refine(coarse)
    assert np.array_equal(fine.increments, again.increments)

    # transform round-trips
    g = build_grid(2, (32, 32), (1.0, 1.0))
    rng = np.random.default_rng(0)
    field = rng.standard_normal((3, 32, 32))
    sine_rt = inverse_sine_transform(g, sine_transform(g, field))
    cosine_rt = inverse_cosine_transform(g, cosine_transform(g, field))
    assert float(np.max(np.abs(sine_rt - field))) <= 1e-12
    assert float(np.max(np.abs(cosine_rt - field))) <= 1e-12
