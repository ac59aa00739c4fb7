"""Brownian path sampling, determinism, and exact bridge refinement."""

import numpy as np
import pytest

from slcsim.noise import refine, sample_path


def test_increment_statistics():
    # 20k scalar draws: mean ~ 0, var ~ dt, within 4 standard errors
    path = sample_path(seed=0, trajectory=0, dt=0.25, n_steps=2000, mode_count=9)
    inc = path.increments
    assert inc.shape == (2000, 10)
    flat = inc.ravel()
    n = flat.size
    assert abs(np.mean(flat)) <= 4.0 * np.sqrt(0.25 / n)
    assert abs(np.var(flat) - 0.25) <= 4.0 * 0.25 * np.sqrt(2.0 / n)


def test_lane_accessors():
    path = sample_path(seed=1, trajectory=0, dt=0.1, n_steps=5, mode_count=3)
    assert path.w1(2).shape == (3,)
    assert np.isscalar(path.w2(2)) or np.ndim(path.w2(2)) == 0
    np.testing.assert_array_equal(path.w1(2), path.increments[2, :3])
    assert path.w2(2) == path.increments[2, 3]


def test_same_key_reproduces_bitwise():
    a = sample_path(seed=7, trajectory=3, dt=0.01, n_steps=64, mode_count=4)
    b = sample_path(seed=7, trajectory=3, dt=0.01, n_steps=64, mode_count=4)
    assert np.array_equal(a.increments, b.increments)


def test_trajectories_are_independent_streams():
    a = sample_path(seed=7, trajectory=0, dt=0.01, n_steps=64, mode_count=4)
    b = sample_path(seed=7, trajectory=1, dt=0.01, n_steps=64, mode_count=4)
    c = sample_path(seed=8, trajectory=0, dt=0.01, n_steps=64, mode_count=4)
    assert not np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    # drawing trajectory 1 does not change what trajectory 0 would draw
    again = sample_path(seed=7, trajectory=0, dt=0.01, n_steps=64, mode_count=4)
    assert np.array_equal(a.increments, again.increments)


def _pair_sum_error_in_ulps(fine, coarse):
    left, right = fine.increments[0::2], fine.increments[1::2]
    err = np.abs((left + right) - coarse.increments)
    scale = np.maximum.reduce([np.abs(left), np.abs(right), np.abs(coarse.increments)])
    return np.max(err / np.maximum(scale * np.finfo(float).eps, 1e-300))


def test_refine_halves_step_and_sums_to_one_rounding():
    coarse = sample_path(seed=2, trajectory=0, dt=0.2, n_steps=16, mode_count=5)
    fine = refine(coarse)
    assert fine.dt == pytest.approx(0.1)
    assert fine.n_steps == 32
    assert fine.level == coarse.level + 1
    assert fine.horizon == pytest.approx(coarse.horizon)
    # right = parent - left is the only inexact op: pair sums land within
    # one rounding of the child scale (bitwise equality is unattainable
    # whenever the parent is far smaller than its children)
    assert _pair_sum_error_in_ulps(fine, coarse) <= 2.0


def test_refine_is_deterministic():
    coarse = sample_path(seed=3, trajectory=1, dt=0.2, n_steps=8, mode_count=2)
    f1 = refine(coarse)
    f2 = refine(coarse)
    assert np.array_equal(f1.increments, f2.increments)


def test_double_refinement_still_sums_to_coarse():
    coarse = sample_path(seed=4, trajectory=0, dt=0.4, n_steps=4, mode_count=3)
    fine2 = refine(refine(coarse))
    assert fine2.dt == pytest.approx(0.1)
    groups = fine2.increments.reshape(4, 4, -1).sum(axis=1)
    scale = np.max(np.abs(fine2.increments))
    np.testing.assert_allclose(groups, coarse.increments, atol=8 * np.finfo(float).eps * scale)


def test_refined_midpoints_have_bridge_statistics():
    # child - parent/2 is N(0, dt/4): check the variance on a big batch
    coarse = sample_path(seed=5, trajectory=0, dt=0.1, n_steps=4000, mode_count=1)
    fine = refine(coarse)
    dev = fine.increments[0::2] - 0.5 * coarse.increments
    n = dev.size
    target = 0.1 / 4.0
    assert abs(np.var(dev) - target) <= 4.0 * target * np.sqrt(2.0 / n)


def test_invalid_sampling_rejected():
    with pytest.raises(ValueError):
        sample_path(seed=0, trajectory=0, dt=0.0, n_steps=4, mode_count=1)
    with pytest.raises(ValueError):
        sample_path(seed=0, trajectory=0, dt=0.1, n_steps=0, mode_count=1)


def test_path_is_frozen():
    path = sample_path(seed=0, trajectory=0, dt=0.1, n_steps=4, mode_count=1)
    with pytest.raises(Exception):
        path.dt = 0.2
