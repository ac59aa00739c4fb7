"""Norms, the Picard path-norm distance, and the binary snapshot format.

Pure sine/cosine product modes have exactly one transform coefficient, so
every spectral norm on them reduces to a closed-form number; those are the
frozen oracles used below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slcsim.fields import (
    SNAPSHOT_VERSION,
    State,
    director_laplacian_norm,
    director_x1_norm,
    e_norm,
    grad_seminorm,
    h_norm,
    l2_norm,
    l4_norm,
    linf_norm,
    read_snapshot,
    spectral_summary,
    stokes_half_norm,
    stokes_norm,
    v_norm,
    write_snapshot,
)
from slcsim.grid import build_grid
from slcsim.integrators import _xt_distance

UNIT = build_grid(2, (32, 32), (1.0, 1.0))


def _sine_mode(grid, kx=1, ky=1):
    x, y = grid.meshgrid()
    return np.sin(kx * np.pi * x / grid.lengths[0]) * np.sin(ky * np.pi * y / grid.lengths[1])


def _cosine_mode(grid, kx=1, ky=1):
    x, y = grid.meshgrid()
    return np.cos(kx * np.pi * x / grid.lengths[0]) * np.cos(ky * np.pi * y / grid.lengths[1])


def _random_state(seed=0, grid=UNIT):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((grid.n_dim, *grid.cells))
    d = rng.standard_normal((3, *grid.cells))
    return State(grid=grid, v=v, d=d, t=0.0)


# ---------------------------------------------------------------------------
# pointwise norms
# ---------------------------------------------------------------------------

def test_l2_of_product_sine_is_one_half():
    # midpoint sampling integrates sin^2 of a full mode exactly
    u = _sine_mode(UNIT)
    assert l2_norm(UNIT, u) == pytest.approx(0.5, abs=1e-14)


def test_l2_matches_direct_sum_for_vectors():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((3, *UNIT.cells))
    direct = np.sqrt(np.sum(d * d) * UNIT.cell_volume)
    assert l2_norm(UNIT, d) == pytest.approx(direct, rel=1e-14)


def test_l4_and_linf_oracles():
    d = np.zeros((3, *UNIT.cells))
    d[0] = 2.0  # uniform magnitude-2 field
    assert linf_norm(UNIT, d) == pytest.approx(2.0, abs=1e-14)
    # |d|^4 integrates to 16 over the unit box
    assert l4_norm(UNIT, d) == pytest.approx(2.0, abs=1e-14)
    d[1, 0, 0] = 5.0
    assert linf_norm(UNIT, d) == pytest.approx(np.hypot(2.0, 5.0), abs=1e-12)


# ---------------------------------------------------------------------------
# spectral norms on pure modes
# ---------------------------------------------------------------------------

def test_h1_of_product_sine():
    lam = 2.0 * np.pi**2
    u = _sine_mode(UNIT)
    expect = np.sqrt((1.0 + lam) * 0.25)
    assert h_norm(UNIT, u, 1, "dirichlet") == pytest.approx(expect, rel=1e-12)


def test_h2_multiplier_on_cosine_mode():
    lam = 2.0 * np.pi**2
    d = _cosine_mode(UNIT)
    expect = np.sqrt((1.0 + lam + lam * lam) * 0.25)
    assert h_norm(UNIT, d, 2, "neumann") == pytest.approx(expect, rel=1e-12)


def test_h0_equals_l2():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(UNIT.cells)
    assert h_norm(UNIT, u, 0, "neumann") == pytest.approx(l2_norm(UNIT, u), rel=1e-13)
    with pytest.raises(ValueError):
        h_norm(UNIT, u, -1, "neumann")


def test_stokes_norms_on_pure_mode():
    mu = 2.0 * np.pi**2
    v = np.zeros((2, *UNIT.cells))
    v[0] = _sine_mode(UNIT)
    assert stokes_half_norm(UNIT, v) == pytest.approx(np.sqrt(mu * 0.25), rel=1e-12)
    assert stokes_norm(UNIT, v) == pytest.approx(mu * 0.5, rel=1e-12)


def test_director_norms_on_pure_mode():
    lam = 2.0 * np.pi**2
    d = np.zeros((3, *UNIT.cells))
    d[2] = _cosine_mode(UNIT)
    assert director_laplacian_norm(UNIT, d) == pytest.approx(lam * 0.5, rel=1e-12)
    assert director_x1_norm(UNIT, d) == pytest.approx(np.sqrt((1 + lam) ** 3 * 0.25), rel=1e-12)
    assert grad_seminorm(UNIT, d, "neumann") == pytest.approx(np.sqrt(lam * 0.25), rel=1e-12)


def test_grad_seminorm_vanishes_on_constants():
    d = np.ones((3, *UNIT.cells))
    assert grad_seminorm(UNIT, d, "neumann") <= 1e-12


def test_unknown_bc_kind_rejected():
    with pytest.raises(ValueError):
        h_norm(UNIT, np.zeros(UNIT.cells), 1, "periodic")


# ---------------------------------------------------------------------------
# composite norms and the per-step summary
# ---------------------------------------------------------------------------

def test_v_and_e_norm_composition():
    s = _random_state(9)
    expect_v = np.hypot(stokes_half_norm(UNIT, s.v), h_norm(UNIT, s.d, 2, "neumann"))
    expect_e = np.hypot(stokes_norm(UNIT, s.v), director_x1_norm(UNIT, s.d))
    assert v_norm(s) == pytest.approx(expect_v, rel=1e-13)
    assert e_norm(s) == pytest.approx(expect_e, rel=1e-13)


def test_spectral_summary_agrees_with_norm_functions():
    s = _random_state(10)
    summ = spectral_summary(s)
    assert summ["l2_v"] == pytest.approx(l2_norm(UNIT, s.v), rel=1e-12)
    assert summ["l2_d"] == pytest.approx(l2_norm(UNIT, s.d), rel=1e-12)
    assert summ["a_half_v"] == pytest.approx(stokes_half_norm(UNIT, s.v), rel=1e-12)
    assert summ["a_v"] == pytest.approx(stokes_norm(UNIT, s.v), rel=1e-12)
    assert summ["h2_d"] == pytest.approx(h_norm(UNIT, s.d, 2, "neumann"), rel=1e-12)
    assert summ["lap_d"] == pytest.approx(director_laplacian_norm(UNIT, s.d), rel=1e-12)
    assert summ["x1_d"] == pytest.approx(director_x1_norm(UNIT, s.d), rel=1e-12)
    assert summ["grad_d"] == pytest.approx(grad_seminorm(UNIT, s.d, "neumann"), rel=1e-12)
    assert summ["v_norm"] == pytest.approx(v_norm(s), rel=1e-12)
    assert summ["e_norm"] == pytest.approx(e_norm(s), rel=1e-12)
    assert summ["blowup"] == pytest.approx(summ["a_half_v"] + summ["lap_d"], rel=1e-13)


def test_state_shape_validation():
    with pytest.raises(ValueError):
        State(grid=UNIT, v=np.zeros((3, *UNIT.cells)), d=np.zeros((3, *UNIT.cells)))
    with pytest.raises(ValueError):
        State(grid=UNIT, v=np.zeros((2, *UNIT.cells)), d=np.zeros((2, *UNIT.cells)))


# ---------------------------------------------------------------------------
# Picard path-norm distance
# ---------------------------------------------------------------------------

def test_xt_accumulator_sup_and_integral():
    """The Picard path norm _xt_distance is sup_j |a_j - b_j|_V^2 plus the
    left-endpoint sum of |a_j - b_j|_E^2 dt."""
    s1, s2, s3 = _random_state(11), _random_state(12), _random_state(13)
    zero = State(UNIT, np.zeros_like(s1.v), np.zeros_like(s1.d), 0.0)
    dist = _xt_distance([s1, s2, s3], [zero, zero, zero], 0.25)
    sup_sq = max(v_norm(s) for s in (s1, s2, s3)) ** 2
    int_sq = (e_norm(s1) ** 2 + e_norm(s2) ** 2) * 0.25
    assert dist == pytest.approx(np.sqrt(sup_sq + int_sq), rel=1e-12)
    assert _xt_distance([s1, s2], [s1, s2], 0.25) == 0.0


def test_xt_update_with_zero_dt_only_touches_sup():
    """The last node carries no time step: it enters the sup but not the integral."""
    s1, s3 = _random_state(11), _random_state(13)
    zero = State(UNIT, np.zeros_like(s1.v), np.zeros_like(s1.d), 0.0)
    assert _xt_distance([s3], [zero], 0.25) == pytest.approx(v_norm(s3), rel=1e-12)
    big = State(UNIT, s1.v, 1e3 * s1.d, 0.0)  # as the last node, only its V-norm counts
    dist = _xt_distance([s3, big], [zero, zero], 0.25)
    sup_sq = max(v_norm(s3), v_norm(big)) ** 2
    assert dist == pytest.approx(np.sqrt(sup_sq + e_norm(s3) ** 2 * 0.25), rel=1e-12)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip_vector(tmp_path):
    g = build_grid(2, (8, 4), (1.0, 2.0))
    rng = np.random.default_rng(17)
    d = rng.standard_normal((3, *g.cells))
    p = tmp_path / "d.slcf"
    write_snapshot(p, g, d, time=0.375)
    meta, back = read_snapshot(p)
    assert meta.n_dim == 2
    assert meta.cells == (8, 4)
    assert meta.lengths == (1.0, 2.0)
    assert meta.n_components == 3
    assert meta.time == 0.375
    assert np.array_equal(back, d)  # bitwise, not approx


def test_snapshot_round_trip_scalar_3d(tmp_path):
    g = build_grid(3, (4, 8, 4), (1.0, 1.0, 0.5))
    rng = np.random.default_rng(18)
    u = rng.standard_normal(g.cells)
    p = tmp_path / "u.slcf"
    write_snapshot(p, g, u, time=0.0)
    meta, back = read_snapshot(p)
    assert meta.n_components == 1
    assert back.shape == g.cells
    assert np.array_equal(back, u)


def test_snapshot_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.slcf"
    p.write_bytes(b"NOPE" + bytes(128))
    with pytest.raises(ValueError):
        read_snapshot(p)


def test_snapshot_writes_are_deterministic(tmp_path):
    g = build_grid(2, (8, 8), (1.0, 1.0))
    u = np.arange(64, dtype=float).reshape(8, 8)
    a, b = tmp_path / "a.slcf", tmp_path / "b.slcf"
    write_snapshot(a, g, u, time=1.0)
    write_snapshot(b, g, u, time=1.0)
    assert a.read_bytes() == b.read_bytes()


def _valid_snapshot(tmp_path):
    g = build_grid(2, (8, 4), (1.0, 2.0))
    p = tmp_path / "d.slcf"
    write_snapshot(p, g, np.ones((3, *g.cells)), time=0.5)
    return p, p.read_bytes()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda raw: raw[:20],                                     # short header
        lambda raw: raw[:4] + (SNAPSHOT_VERSION + 1).to_bytes(4, "little") + raw[8:],
        lambda raw: raw[:-8],                                     # truncated payload
        lambda raw: raw + bytes(8),                               # trailing bytes
        lambda raw: raw[:8] + (4).to_bytes(4, "little") + raw[12:],  # n_dim 4
    ],
    ids=["short_header", "version", "truncated", "trailing", "n_dim"],
)
def test_snapshot_rejects_malformed_files(tmp_path, mangle):
    p, raw = _valid_snapshot(tmp_path)
    p.write_bytes(mangle(raw))
    with pytest.raises(ValueError):
        read_snapshot(p)


@settings(max_examples=40, deadline=None)
@given(
    n_dim=st.sampled_from([2, 3]),
    exponents=st.lists(st.integers(2, 4), min_size=3, max_size=3),
    lengths=st.lists(st.floats(0.125, 8.0), min_size=3, max_size=3),
    components=st.sampled_from([0, 2, 3]),
    time=st.floats(allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_snapshot_round_trip_property(tmp_path_factory, n_dim, exponents, lengths,
                                      components, time, seed):
    """write_snapshot/read_snapshot is the identity on grids, component
    counts (0 meaning a scalar field) and times, bit for bit."""
    g = build_grid(n_dim, tuple(2**e for e in exponents[:n_dim]), tuple(lengths[:n_dim]))
    shape = g.cells if components == 0 else (components, *g.cells)
    field = np.random.default_rng(seed).standard_normal(shape)
    p = tmp_path_factory.mktemp("snap") / "f.slcf"
    write_snapshot(p, g, field, time=time)
    meta, back = read_snapshot(p)
    assert (meta.n_dim, meta.cells, meta.lengths) == (g.n_dim, g.cells, g.lengths)
    assert meta.n_components == max(components, 1)
    assert meta.time == time
    assert back.shape == field.shape and np.array_equal(back, field)
