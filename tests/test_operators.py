"""Projection, advection, stress, semigroup, and noise-coefficient checks.

The cancellation checks (skew-symmetry, projector algebra) are exact
discrete statements and get roundoff-level tolerances; consistency checks
against the continuum get Richardson slopes instead.  The noise-mode table,
the noise basis and the magnetic bump are pinned bitwise against the
enumerate-and-sort and meshgrid constructions kept here as oracles.
"""

import tracemalloc

import numpy as np
import pytest

from slcsim.errors import ConfigError, DomainError
from slcsim.fields import l2_norm
from slcsim.grid import (
    build_grid,
    centered_gradient,
    cosine_transform,
    divergence,
    inverse_cosine_transform,
    sine_transform,
)
from slcsim.operators import (
    MagneticFieldSpec,
    NoiseCoefficientSpec,
    OperatorCache,
    _flux_divergence,
    _mode_table,
    _noise_basis,
    assemble_L,
    b1,
    b2,
    director_noise_increment,
    drift,
    ericksen_divergence,
    f_penalty,
    g2_cross,
    g_cross,
    leray_project,
    m_term,
    pressure_of,
    semigroup_director,
    semigroup_velocity_exact,
    semigroup_velocity_step,
    velocity_noise_increment,
)

G = build_grid(2, (32, 32), (1.0, 1.0))


def _rand_vec(seed, comps=2, grid=G):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((comps, *grid.cells))


def _signed_zeros(seed, comps, grid=G):
    """A random field with runs of exact +0.0 and -0.0, so that a kernel that
    flips the sign of a zero result changes the bytes."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((comps, *grid.cells))
    a[rng.random(a.shape) < 0.3] = 0.0
    a[rng.random(a.shape) < 0.1] = -0.0
    return a


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


G3 = build_grid(3, (8, 4, 16), (1.0, 2.0, 0.5))


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------

def test_leray_idempotent_and_orthogonal():
    for seed in range(20):
        F = _rand_vec(seed)
        PF = leray_project(G, F)
        scale = np.sqrt(np.sum(F * F) * G.cell_volume)
        assert l2_norm(G, leray_project(G, PF) - PF) <= 1e-10 * scale
        inner = np.sum(PF * (F - PF)) * G.cell_volume
        assert abs(inner) <= 1e-10 * scale**2


def test_leray_annihilates_centered_gradients():
    rng = np.random.default_rng(40)
    for _ in range(20):
        p = rng.standard_normal(G.cells)
        gp = centered_gradient(G, p, "neumann")
        assert l2_norm(G, leray_project(G, gp)) <= 1e-10 * max(l2_norm(G, gp), 1.0)


def test_projected_field_is_discretely_divergence_free():
    F = _rand_vec(41)
    PF = leray_project(G, F)
    div = divergence(G, PF)
    assert np.max(np.abs(div)) <= 1e-10 * np.max(np.abs(F)) / G.spacings[0]


def test_pressure_is_mean_free():
    F = _rand_vec(42)
    p = pressure_of(G, F)
    assert abs(np.sum(p) * G.cell_volume) <= 1e-12


@pytest.mark.parametrize("grid", [G, G3])
def test_pressure_matches_masked_solve_bitwise(grid):
    F = _signed_zeros(30, grid.n_dim, grid)
    rhs_hat = cosine_transform(grid, divergence(grid, F))
    sym = grid.spectrum().projection_symbol
    p_hat = np.zeros_like(rhs_hat)
    mask = sym > 0.0
    p_hat[mask] = -rhs_hat[mask] / sym[mask]
    assert _same_bytes(pressure_of(grid, F), inverse_cosine_transform(grid, p_hat))


# ---------------------------------------------------------------------------
# advection cancellations
# ---------------------------------------------------------------------------

def _transport_per_component(grid, u, carried):
    out = np.empty_like(carried)
    for k in range(carried.shape[0]):
        acc = _flux_divergence(grid, u[0], carried[k], 0)
        for a in range(1, grid.n_dim):
            acc += _flux_divergence(grid, u[a], carried[k], a)
        out[k] = acc
    return out


@pytest.mark.parametrize("grid", [G, G3])
def test_transport_matches_per_component_loop_bitwise(grid):
    u = _signed_zeros(31, grid.n_dim, grid)
    v = _signed_zeros(32, grid.n_dim, grid)
    d = _signed_zeros(33, 3, grid)
    assert _same_bytes(b1(grid, u, v), _transport_per_component(grid, u, v))
    assert _same_bytes(b2(grid, u, d), _transport_per_component(grid, u, d))


def test_b1_energy_neutral_for_solenoidal_carrier():
    for seed in range(20):
        u = leray_project(G, _rand_vec(seed * 3 + 1))
        v = _rand_vec(seed * 3 + 2)
        inner = np.sum(b1(G, u, v) * v) * G.cell_volume
        scale = l2_norm(G, u) * l2_norm(G, v) ** 2
        assert abs(inner) <= 1e-11 * max(scale, 1.0)


def test_b2_energy_neutral_for_solenoidal_carrier():
    for seed in range(20):
        u = leray_project(G, _rand_vec(seed * 3 + 1))
        d = _rand_vec(seed * 3 + 2, comps=3)
        inner = np.sum(b2(G, u, d) * d) * G.cell_volume
        scale = l2_norm(G, u) * l2_norm(G, d) ** 2
        assert abs(inner) <= 1e-11 * max(scale, 1.0)


def test_b1_skew_polarization():
    # <b1(u,v), w> = -<b1(u,w), v> follows from neutrality of v+w
    u = leray_project(G, _rand_vec(50))
    v, w = _rand_vec(51), _rand_vec(52)
    lhs = np.sum(b1(G, u, v) * w) * G.cell_volume
    rhs = -np.sum(b1(G, u, w) * v) * G.cell_volume
    assert lhs == pytest.approx(rhs, abs=1e-11 * l2_norm(G, u) * l2_norm(G, v) * l2_norm(G, w))


# ---------------------------------------------------------------------------
# semigroups
# ---------------------------------------------------------------------------

def test_director_semigroup_eigen_decay():
    x, y = G.meshgrid()
    d = np.zeros((3, *G.cells))
    d[1] = np.cos(np.pi * x) * np.cos(np.pi * y)
    lam = 2.0 * np.pi**2  # continuum eigenvalue of the (1,1) cosine mode
    out = semigroup_director(G, d, 0.03)
    np.testing.assert_allclose(out, np.exp(-lam * 0.03) * d, atol=1e-12)


def test_director_semigroup_composition_and_identity():
    d = _rand_vec(60, comps=3)
    two = semigroup_director(G, semigroup_director(G, d, 0.01), 0.02)
    one = semigroup_director(G, d, 0.03)
    assert np.max(np.abs(two - one)) <= 1e-12
    assert np.max(np.abs(semigroup_director(G, d, 0.0) - d)) <= 1e-12
    with pytest.raises(DomainError):
        semigroup_director(G, d, -0.01)


def test_velocity_semigroup_contracts_and_projects():
    v = leray_project(G, _rand_vec(61))
    for t in (0.0, 0.01, 0.1):
        out = semigroup_velocity_exact(G, v, t)
        assert l2_norm(G, out) <= l2_norm(G, v) * (1.0 + 1e-12)
        assert np.max(np.abs(divergence(G, out))) <= 1e-9
    with pytest.raises(DomainError):
        semigroup_velocity_step(G, v, -1e-3)


def test_implicit_multiplier_brackets_exact_exponential():
    """0 <= 1/(1+x) - e^{-x} <= x^2/2: the resolvent sits above the exponential
    and the gap is second order, uniformly over the whole spectrum."""
    x = np.concatenate([np.linspace(0.0, 5.0, 2001), np.geomspace(5.0, 1e6, 200)])
    gap = 1.0 / (1.0 + x) - np.exp(-x)
    assert np.all(gap >= -1e-16)
    assert np.all(gap <= 0.5 * x * x + 1e-16)


def test_implicit_step_error_obeys_modewise_bound():
    # the error is NOT monotone in dt (mode shells sweep through the unimodal
    # gap peak at mu dt ~ 1.8), but it never exceeds the mode-wise oracle and
    # it vanishes in the limit
    from slcsim.grid import sine_transform

    v = leray_project(G, _rand_vec(62))
    mu = G.spectrum().dirichlet_eigenvalues
    coeff_sq = np.sum(sine_transform(G, v) ** 2, axis=0)
    for dt in (1e-3, 1e-4, 1e-5):
        diff = semigroup_velocity_step(G, v, dt) - semigroup_velocity_exact(G, v, dt)
        gap = 1.0 / (1.0 + mu * dt) - np.exp(-mu * dt)
        oracle = np.sqrt(np.sum(gap * gap * coeff_sq) * G.cell_volume)
        assert l2_norm(G, diff) <= oracle * (1.0 + 1e-10)
    tiny = semigroup_velocity_step(G, v, 1e-6) - semigroup_velocity_exact(G, v, 1e-6)
    assert l2_norm(G, tiny) <= 1e-3 * l2_norm(G, v)


# ---------------------------------------------------------------------------
# stress duality
# ---------------------------------------------------------------------------

def test_single_grid_duality_is_small():
    from slcsim.diagnostics import duality_gap

    g64 = build_grid(2, (64, 64), (1.0, 1.0))
    assert duality_gap(g64, seed=1) <= 0.05


def test_m_term_is_projected():
    d = _rand_vec(63, comps=3)
    out = m_term(G, d, d)
    assert l2_norm(G, leray_project(G, out) - out) <= 1e-10 * max(l2_norm(G, out), 1.0)
    raw = ericksen_divergence(G, d, d)
    assert l2_norm(G, out - raw) > 0.0  # projection actually removed a gradient part


# ---------------------------------------------------------------------------
# penalty and rotation algebra
# ---------------------------------------------------------------------------

def test_penalty_frozen_values():
    d = np.zeros((3, 2, 2))
    d[0] = 0.5
    out = f_penalty(d, eps=1.0)
    np.testing.assert_allclose(out[0], -0.375, atol=1e-15)  # (0.25 - 1) * 0.5
    d[0] = 2.0
    assert np.all(f_penalty(d, eps=1.0) == 0.0)  # dead outside the unit ball
    d[0] = 1.0
    assert np.all(f_penalty(d, eps=1.0) == 0.0)  # |d| = 1 is equilibrium
    d[0] = 0.5
    np.testing.assert_allclose(f_penalty(d, eps=0.5)[0], -1.5, atol=1e-15)
    with pytest.raises(DomainError):
        f_penalty(d, eps=0.0)


def test_cross_products_frozen_triple():
    d = np.zeros((3, 1, 1))
    h = np.zeros((3, 1, 1))
    d[0] = 1.0
    h[1] = 1.0
    dxh = g_cross(d, h)
    np.testing.assert_allclose(dxh[:, 0, 0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(g2_cross(d, h)[:, 0, 0], [-1.0, 0.0, 0.0], atol=1e-15)


def test_g2_is_iterated_cross_and_orthogonal():
    rng = np.random.default_rng(70)
    d = rng.standard_normal((3, 4, 4))
    h = rng.standard_normal((3, 4, 4))
    assert np.array_equal(g2_cross(d, h), g_cross(g_cross(d, h), h))
    # d . (d x h) = 0 pointwise
    assert np.max(np.abs(np.sum(d * g_cross(d, h), axis=0))) <= 1e-13


def test_cross_products_match_numpy_cross_bitwise():
    d = _signed_zeros(71, 3)
    for h in (_signed_zeros(72, 3), MagneticFieldSpec().build(G)):
        assert _same_bytes(g_cross(d, h), np.cross(d, h, axis=0))
        assert _same_bytes(
            g2_cross(d, h), np.cross(np.cross(d, h, axis=0), h, axis=0)
        )


# ---------------------------------------------------------------------------
# magnetic profiles
# ---------------------------------------------------------------------------

def test_magnetic_bump_shape_and_trace():
    spec = MagneticFieldSpec(profile="sine_bump", amplitude=2.0)
    h = spec.build(G)
    assert h.shape == (3, *G.cells)
    assert np.all(h[1] == 0.0) and np.all(h[2] == 0.0)
    assert np.max(h[0]) <= 2.0
    # h vanishes on the boundary: its largest value on the edge cells, half a
    # cell from the wall, shrinks linearly with the spacing
    edge = []
    for n in (32, 64):
        bump = spec.build(build_grid(2, (n, n), (1.0, 1.0)))[0]
        edge.append(max(np.max(np.abs(bump[[0, -1], :])), np.max(np.abs(bump[:, [0, -1]]))))
    assert edge[0] <= 2.0 * np.pi / 64
    assert edge[0] / edge[1] == pytest.approx(2.0, rel=0.01)
    assert np.all(MagneticFieldSpec(profile="zero", amplitude=5.0).build(G) == 0.0)


def test_magnetic_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        MagneticFieldSpec(profile="solenoid", amplitude=1.0)


# ---------------------------------------------------------------------------
# noise coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "white"},
        {"decay_exponent": 1.0},
        {"sigma": -0.1},
        {"mode_count": 0},
        {"clip": 0.0},
    ],
)
def test_noise_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        NoiseCoefficientSpec(**kwargs)


def test_gain_and_lipschitz():
    add = NoiseCoefficientSpec(kind="additive_trace_class")
    mult = NoiseCoefficientSpec(kind="linear_multiplicative", clip=1.0)
    assert add.gain(37.0) == 1.0
    assert mult.gain(0.25) == 0.25
    assert mult.gain(9.0) == 1.0  # clipped
    # the clipped gain is 1-Lipschitz in |v|, the additive one constant
    xs = np.random.default_rng(84).uniform(0.0, 3.0, size=(200, 2))
    for a, b in xs:
        assert abs(mult.gain(a) - mult.gain(b)) <= abs(a - b)
        assert add.gain(a) == add.gain(b)


def _cache(kind="additive_trace_class", modes=8):
    spec = NoiseCoefficientSpec(kind=kind, sigma=0.3, decay_exponent=1.5, mode_count=modes)
    return OperatorCache(G, spec, MagneticFieldSpec(profile="sine_bump", amplitude=1.0))


def test_forcing_mass_two_ways():
    """sigma^2 sum (1+mu_j)^{1-2s} computed from the table and from the fields."""
    cache = _cache()
    mu = G.spectrum().dirichlet_eigenvalues
    # on the unit square mu_j = pi^2 (k_0^2 + k_1^2); the eight lowest modes
    # are wavenumbers (1,1), (1,2), (2,1) and (2,2), each in both components
    mus = np.pi**2 * np.array([2.0, 2.0, 5.0, 5.0, 5.0, 5.0, 8.0, 8.0])
    from_fields = 0.0
    for j in range(cache.noise_fields.shape[0]):
        psi = cache.noise_fields[j]
        coeff = sine_transform(G, psi)
        a_half_sq = float(np.sum(mu * coeff * coeff) * G.cell_volume)
        graph_sq = l2_norm(G, psi) ** 2 + a_half_sq
        # each mode is normalized so its graph norm squared is 1 + mu_j
        assert graph_sq == pytest.approx(1.0 + mus[j], rel=1e-10)
        from_fields += cache.noise_weights[j] ** 2 * graph_sq
    s = cache.noise.decay_exponent
    from_table = cache.noise.sigma**2 * np.sum((1.0 + mus) ** (1.0 - 2.0 * s))
    assert from_fields == pytest.approx(from_table, rel=1e-10)


def test_noise_modes_are_divergence_free():
    cache = _cache()
    for j in range(cache.noise_fields.shape[0]):
        div = divergence(G, cache.noise_fields[j])
        assert np.max(np.abs(div)) <= 1e-9


def test_velocity_increment_matches_manual_sum():
    cache = _cache()
    rng = np.random.default_rng(80)
    dw = rng.standard_normal(8) * 0.03
    v = leray_project(G, _rand_vec(81))
    out = velocity_noise_increment(cache, v, dw)
    manual = sum(cache.noise_weights[j] * dw[j] * cache.noise_fields[j] for j in range(8))
    np.testing.assert_allclose(out, manual, atol=1e-14)


def test_multiplicative_increment_is_lipschitz_in_v():
    # |S(v1)dW - S(v2)dW| <= |v1 - v2| |sum w_j psi_j dW_j|: the gain is 1-Lipschitz
    cache = _cache(kind="linear_multiplicative")
    rng = np.random.default_rng(82)
    dw = rng.standard_normal(8) * 0.05
    kernel = np.tensordot(cache.noise_weights * dw, cache.noise_fields, axes=(0, 0))
    for seed in range(10):
        v1 = _rand_vec(seed * 7 + 1) * 0.1
        v2 = _rand_vec(seed * 7 + 2) * 0.1
        diff = velocity_noise_increment(cache, v1, dw) - velocity_noise_increment(cache, v2, dw)
        bound = l2_norm(G, v1 - v2) * l2_norm(G, kernel)
        assert l2_norm(G, diff) <= bound * (1.0 + 1e-9)


def test_director_increment_is_scaled_cross_product():
    cache = _cache()
    d = _rand_vec(83, comps=3)
    out = director_noise_increment(cache, d, 0.37)
    np.testing.assert_allclose(out, 0.37 * g_cross(d, cache.h_field), atol=1e-15)


def _enumerated_mode_table(grid, count):
    """Every (eigenvalue, wavenumbers, component) triple as a Python tuple,
    sorted; the first ``count``."""
    entries = []
    for idx in np.ndindex(*grid.cells):
        wav = tuple(int(i) + 1 for i in idx)
        mu = sum((wav[a] * np.pi / grid.lengths[a]) ** 2 for a in range(grid.n_dim))
        for comp in range(grid.n_dim):
            entries.append((float(mu), wav, comp))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return entries[:count]


def _meshgrid_noise_basis(grid, count):
    """The scaled projected sine modes, built on the full coordinate mesh and
    stacked."""
    coords = grid.meshgrid()
    fields, mus = [], []
    for mu, wav, comp in _enumerated_mode_table(grid, count):
        base = np.ones(grid.cells)
        for a in range(grid.n_dim):
            base = base * np.sin(wav[a] * np.pi * coords[a] / grid.lengths[a])
        vec = np.zeros((grid.n_dim, *grid.cells))
        vec[comp] = base
        proj = leray_project(grid, vec)
        coeff = sine_transform(grid, proj)
        table = grid.spectrum().dirichlet_eigenvalues
        graph_sq = float(np.sum((1.0 + table) * coeff * coeff) * grid.cell_volume)
        fields.append(proj * np.sqrt((1.0 + mu) / graph_sq))
        mus.append(mu)
    return np.stack(fields), np.asarray(mus)


_MODE_GRIDS = [
    ((64, 64), (1.0, 1.0)),
    ((16, 16), (1.0, 1.0)),
    ((32, 16), (1.0, 0.7)),
    ((16, 64), (1.0, 2.5)),
    ((8, 8, 16), (1.0, 1.0, 1.0)),
    ((16, 32, 8), (0.3, 1.7, 2.9)),
]
_MODE_CASES = [(cells, lengths, count) for cells, lengths in _MODE_GRIDS for count in (1, 16)]
_MODE_CASES += [((4, 4), (1.0, 1.0), count) for count in range(1, 33)]  # every mode of 4x4


@pytest.mark.parametrize("cells, lengths, count", _MODE_CASES)
def test_noise_modes_match_the_enumerated_oracle_bitwise(cells, lengths, count):
    grid = build_grid(len(cells), cells, lengths)
    # repr also tells a Python float or int from a numpy scalar
    assert repr(_mode_table(grid, count)) == repr(_enumerated_mode_table(grid, count))
    fields, mus = _noise_basis.__wrapped__(grid, count)
    oracle_fields, oracle_mus = _meshgrid_noise_basis(grid, count)
    assert _same_bytes(fields, oracle_fields)
    assert _same_bytes(mus, oracle_mus)


@pytest.mark.parametrize("cells, lengths", _MODE_GRIDS)
def test_magnetic_bump_matches_the_meshgrid_product_bitwise(cells, lengths):
    grid = build_grid(len(cells), cells, lengths)
    bump = np.ones(grid.cells)
    for a, x in enumerate(grid.meshgrid()):
        bump = bump * np.sin(np.pi * x / grid.lengths[a])
    h = MagneticFieldSpec(profile="sine_bump", amplitude=0.37).build(grid)
    assert h[0].tobytes() == (0.37 * bump).tobytes()


def test_noise_basis_is_built_in_place():
    # a list of modes stacked into the basis peaks at about 2.4 basis sizes
    grid = build_grid(2, (64, 64), (1.0, 1.0))
    fields, _ = _noise_basis.__wrapped__(grid, 16)  # warm the per-grid tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _noise_basis.__wrapped__(grid, 16)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * fields.nbytes


# ---------------------------------------------------------------------------
# drift assembly
# ---------------------------------------------------------------------------

def test_assemble_F_composition():
    """Without the Ito correction the drift is exactly -F, term by term, and
    each toggle drops exactly its own term."""
    cache = _cache()
    v = leray_project(G, _rand_vec(90))
    d = _rand_vec(91, comps=3) * 0.4
    fv = leray_project(G, b1(G, v, v) + ericksen_divergence(G, d, d))
    fd = b2(G, v, d) + f_penalty(d, cache.eps)
    dv, dd = drift(G, v, d, cache.eps)
    assert np.array_equal(dv, -fv)
    assert np.array_equal(dd, -fd)

    dv, dd = drift(G, v, d, cache.eps, cache)
    assert np.array_equal(dv, -fv)
    np.testing.assert_allclose(dd, -assemble_L(cache, d) - fd, atol=1e-13)

    dv, dd = drift(G, v, d, cache.eps, velocity=False, transport=False)
    assert dv is None
    assert np.array_equal(dd, -f_penalty(d, cache.eps))
    _, dd = drift(G, v, d, cache.eps, penalty=False)
    assert np.array_equal(dd, -b2(G, v, d))


def test_assemble_L_is_negative_half_double_cross():
    # the Ito-form drift correction: L(d) = -1/2 (d x h) x h
    cache = _cache()
    d = _rand_vec(92, comps=3)
    np.testing.assert_allclose(
        assemble_L(cache, d), -0.5 * g2_cross(d, cache.h_field), atol=1e-15
    )
