"""Diagnostics tests: pointwise functionals, the recorded energy series,
sharp constants, inequality probes, duality refinement, and the ensemble
growth fit.

Frozen values use fields whose norms are dyadic-exact at cell centers
(uniform directors, unit boxes) so the expected numbers are closed-form.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from slcsim import diagnostics
from slcsim.config import SimConfig
from slcsim.errors import ConfigError, DomainError
from slcsim.fields import (
    State,
    grad_seminorm,
    h_norm,
    l2_norm,
    l4_norm,
    linf_norm,
    spectral_summary,
)
from slcsim.grid import (
    build_grid,
    centered_gradient,
    cosine_transform,
    inverse_cosine_transform,
    sine_transform,
)
from slcsim.integrators import contraction_slopes, initial_state, run_trajectory
from slcsim.operators import b2, drift, leray_project, m_term
from slcsim.diagnostics import (
    duality_gap,
    ensemble_energy_bound,
    gn_l4_ratio,
    gn_linf_ratio,
    lipschitz_probe_F,
    max_principle_gap,
    penalty_energy,
    phi_rate,
    probe_suite,
    psi_functional,
    random_probe_states,
    random_smooth_scalar,
    random_smooth_vector,
    remark_ratio,
    richardson_order,
    young_constant,
)
from slcsim.diagnostics import _mode_tables

G16 = build_grid(2, (16, 16), (1.0, 1.0))
G32 = build_grid(2, (32, 32), (1.0, 1.0))
G64 = build_grid(2, (64, 64), (1.0, 1.0))


def _uniform_director(grid, components) -> np.ndarray:
    d = np.zeros((3, *grid.cells))
    for i, c in enumerate(components):
        d[i] = c
    return d


# ---------------------------------------------------------------------------
# pointwise functionals with closed-form values
# ---------------------------------------------------------------------------

def test_max_principle_gap_frozen_values():
    # |d|^2 = 1 + 1/4 exactly in binary; excess^2 * volume = 1/16
    d = _uniform_director(G16, (1.0, 0.5, 0.0))
    assert max_principle_gap(G16, d) == 0.0625
    assert max_principle_gap(G16, _uniform_director(G16, (0.0, 0.0, 1.0))) == 0.0
    assert max_principle_gap(G16, _uniform_director(G16, (0.3, 0.0, 0.0))) == 0.0


def test_penalty_energy_frozen_values_and_domain():
    d = _uniform_director(G16, (0.5, 0.5, 0.5))      # |d|^2 = 3/4, deficit -1/4
    assert penalty_energy(G16, d, 1.0) == 0.015625   # (1/16)/4
    assert penalty_energy(G16, d, 0.5) == 0.0625     # deficit^2 / (4 eps^2)
    assert penalty_energy(G16, _uniform_director(G16, (1.0, 0.0, 0.0)), 1.0) == 0.0
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            penalty_energy(G16, d, bad)


def _small_cfg(**overrides) -> SimConfig:
    base = dict(n_dim=2, cells=(16, 16), lengths=(1.0, 1.0),
                dt=1e-3, horizon=5e-3, mode_count=8)
    base.update(overrides)
    return SimConfig(**base)


def test_energy_q_frozen_values_and_domain():
    # the recorded series at t = 0: v = 0 and a uniform |d| = 1/2 director
    cfg = _small_cfg(velocity_profile="zero", director_profile="uniform",
                     director_amplitude=0.5, horizon=1e-3)
    assert run_trajectory(cfg).series["energy_q"][0] == pytest.approx(0.25, rel=1e-13)
    quartic = _small_cfg(velocity_profile="zero", director_profile="uniform",
                         director_amplitude=0.5, horizon=1e-3, q=4.0)
    assert run_trajectory(quartic).series["energy_q"][0] == pytest.approx(0.0625, rel=1e-13)
    with pytest.raises(ConfigError):
        _small_cfg(q=1.5)


def test_energy_q_matches_spectral_summary_composition():
    # the spectral row against the pointwise L2 norm and the gradient seminorm
    cfg = _small_cfg(horizon=1e-3)
    state = initial_state(cfg, cfg.grid())
    expected = (
        l2_norm(state.grid, state.v) ** 2
        + l2_norm(state.grid, state.d) ** 2
        + grad_seminorm(state.grid, state.d, "neumann") ** 2
    )
    assert run_trajectory(cfg).series["energy_q"][0] == pytest.approx(expected, rel=1e-12)


def test_psi_functional_frozen_values():
    """Uniform directors have zero spectral Laplacian, so the residual is the
    penalty drift alone: |f|^2 = ((1-c^2) c / eps^2)^2 * volume."""
    half = _uniform_director(G16, (0.0, 0.0, 0.5))
    assert psi_functional(G16, half, 1.0) == pytest.approx(0.140625, rel=1e-12)
    unit = _uniform_director(G16, (0.0, 0.0, 1.0))
    assert psi_functional(G16, unit, 1.0) == 0.0     # penalty inactive at |d| = 1


# ---------------------------------------------------------------------------
# sharp Young constant and the weight exponents
# ---------------------------------------------------------------------------

def test_young_constant_frozen_values():
    assert young_constant(1.0, 2.0, 2.0) == 0.25
    assert young_constant(1.0, 4.0 / 3.0, 4.0) == pytest.approx(
        0.75 * 4.0 ** (-1.0 / 3.0), rel=1e-13
    )


@pytest.mark.parametrize("alpha,p,q", [(1.0, 4.0 / 3.0, 4.0), (2.0, 3.0, 1.5), (0.5, 2.0, 2.0)])
def test_young_constant_is_sharp(alpha, p, q):
    """The returned C satisfies ab <= C a^p + alpha b^q everywhere AND attains
    equality at the analytic optimizer a* = (pC)^(-1/(p-1)), b = 1 — so it is
    neither too small (inequality) nor too large (tightness)."""
    c = young_constant(alpha, p, q)
    rng = np.random.default_rng(0)
    a = rng.uniform(1e-3, 5.0, size=500)
    b = rng.uniform(1e-3, 5.0, size=500)
    assert np.all(a * b <= c * a**p + alpha * b**q + 1e-12)
    a_star = (p * c) ** (-1.0 / (p - 1.0))
    residual = c * a_star**p + alpha - a_star
    assert abs(residual) <= 1e-10


@pytest.mark.parametrize(
    "alpha,p,q",
    [(0.0, 2.0, 2.0), (-1.0, 2.0, 2.0), (1.0, 1.0, 2.0), (1.0, 3.0, 3.0)],
)
def test_young_constant_rejects_bad_exponents(alpha, p, q):
    with pytest.raises(DomainError):
        young_constant(alpha, p, q)


def test_phi_rate_two_dimensional_closed_form():
    # n = 2: exponents (4/3, 4), velocity power 2n/(4-n) = 2
    expected = 0.75 * 4.0 ** (-1.0 / 3.0) * 2.0**2 * 3.0**2
    assert phi_rate(2.0, 3.0, 2) == pytest.approx(expected, rel=1e-13)
    assert phi_rate(0.0, 3.0, 2) == 0.0


def test_phi_rate_singular_dimension_and_negative_dt():
    with pytest.raises(DomainError):
        phi_rate(1.0, 1.0, 4)
    # the weight integral only ever sees the configured dt, which must be positive
    with pytest.raises(ConfigError):
        _small_cfg(dt=-1e-3)


def test_phi_increment_is_rate_times_dt():
    # one step: the recorded weight is exp(-rate * dt) at the new node
    cfg = _small_cfg(horizon=1e-3)
    rec = run_trajectory(cfg)
    summ = spectral_summary(rec.terminal)
    rate = phi_rate(summ["l2_v"], summ["a_half_v"], 2)
    assert rate > 0.0
    assert rec.series["phi_weight"][0] == 1.0
    assert rec.series["phi_weight"][1] == pytest.approx(np.exp(-rate * cfg.dt), rel=1e-12)


# ---------------------------------------------------------------------------
# inequality probes
# ---------------------------------------------------------------------------

def test_lipschitz_probe_is_positive_finite_and_rejects_identical_states():
    [[y1]] = random_probe_states(G32, [4], (1.0,))
    [[y2]] = random_probe_states(G32, [104], (1.0,))
    [ratio] = lipschitz_probe_F([y1], [y2])
    assert np.isfinite(ratio) and ratio > 0.0
    with pytest.raises(DomainError):
        lipschitz_probe_F([y1], [y1])
    for firsts, seconds in (([], []), ([y1], [y2, y1])):
        with pytest.raises(ValueError, match="pairs of states"):
            lipschitz_probe_F(firsts, seconds)


def _five_norm_lipschitz(y1, y2):
    """The Lipschitz ratio with each V- and E-norm composed from its own Stokes
    and director norms, every one paying for its own transform."""
    grid = y1.grid
    a = grid.n_dim / 4.0
    spec = grid.spectrum()

    def weighted(coeff, weight):
        # squared coefficients summed over components, then the weighted sum
        sq = np.sum(coeff * coeff, axis=(0,))
        return float(np.sqrt(np.sum(weight * sq) * grid.cell_volume))

    def vn(s):
        mu = spec.dirichlet_eigenvalues
        x, y = weighted(sine_transform(grid, s.v), mu), h_norm(grid, s.d, 2, "neumann")
        return float(np.sqrt(x * x + y * y))

    def en(s):
        mu, lam = spec.dirichlet_eigenvalues, spec.neumann_eigenvalues
        x = weighted(sine_transform(grid, s.v), mu * mu)
        y = weighted(cosine_transform(grid, s.d), (1.0 + lam) ** 3)
        return float(np.sqrt(x * x + y * y))

    diff = State(grid, y1.v - y2.v, y1.d - y2.d, y1.t)
    dv = vn(diff)
    dv1, dd1 = drift(grid, y1.v, y1.d, 1.0)
    dv2, dd2 = drift(grid, y2.v, y2.d, 1.0)
    num = np.sqrt(
        l2_norm(grid, dv1 - dv2) ** 2 + h_norm(grid, dd1 - dd2, 1, "neumann") ** 2
    )
    bracket = vn(y1) ** (1.0 - a) * en(y1) ** a + en(diff) ** a * dv ** (-a) * vn(y2) + 1.0
    return float(num / (dv * bracket))


@pytest.mark.parametrize("grid", [G32, build_grid(3, (8, 8, 16), (1.0, 1.0, 2.0))],
                         ids=["square", "3d"])
def test_lipschitz_probe_matches_five_norm_composition_exactly(grid):
    for k in range(3):
        for [y1], [y2] in zip(random_probe_states(grid, [5 * k], (0.5, 1.0, 2.0)),
                              random_probe_states(grid, [5 * k + 50000], (0.5, 1.0, 2.0))):
            assert lipschitz_probe_F([y1], [y2]) == [_five_norm_lipschitz(y1, y2)]


@pytest.mark.parametrize("grid", [G32, build_grid(3, (8, 8, 16), (1.0, 1.0, 2.0))],
                         ids=["square", "3d"])
def test_random_probe_states_match_per_amplitude_draws_bitwise(grid):
    """One draw scaled by a power of two is the draw at that amplitude: the
    per-amplitude construction, kept here as the oracle, gives the same bytes."""
    amplitudes = (0.5, 1.0, 2.0)
    for seed in (0, 7, 50005, 123456):
        states = [state for [state] in random_probe_states(grid, [seed], amplitudes)]
        assert len(states) == len(amplitudes)
        for amp, state in zip(amplitudes, states):
            v = leray_project(grid, random_smooth_vector(
                grid, seed, grid.n_dim, bc_kind="dirichlet", amplitude=amp))
            d = random_smooth_vector(grid, seed + 1, 3, bc_kind="neumann", amplitude=0.5 * amp)
            d[2] += 1.0
            assert state.v.tobytes() == v.tobytes()
            assert state.d.tobytes() == d.tobytes()
            assert state.grid is grid and state.t == 0.0


def test_remark_ratio_positive_and_stable_under_refinement():
    vals = []
    for g in (G16, G64):
        batch = [
            remark_ratio(g, random_smooth_vector(g, 77 * k, 3, bc_kind="neumann"))
            for k in range(10)
        ]
        assert all(np.isfinite(r) and r > 0.0 for r in batch)
        vals.append(max(batch))
    assert max(vals) / min(vals) <= 2.0


@pytest.mark.parametrize("ratio_fn", [gn_l4_ratio, gn_linf_ratio])
def test_interpolation_ratios_positive_and_degenerate_input_rejected(ratio_fn):
    u = random_smooth_scalar(G32, seed=5)
    r = ratio_fn(G32, u)
    assert np.isfinite(r) and 0.0 < r < 2.0
    with pytest.raises(DomainError):
        ratio_fn(G32, np.zeros(G32.cells))


def _bump(grid, radius: float) -> np.ndarray:
    """The C^inf bump exp(-1/(1 - |x - c|^2/r^2)) centred in the unit box."""
    x, y = grid.meshgrid()
    s = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / radius**2
    u = np.zeros(grid.cells)
    inside = s < 1.0
    u[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    return u


def test_gn_ratios_see_their_exponent_under_dilation():
    """Dilating a field by r scales both interpolation ratios by r^(a - n/4),
    so only the exponent a = n/4 leaves them flat in r.  Measured on 256^2:
    log-log slope -0.005 for both forms, against the band |slope| <= 0.05.
    The same ratios recomputed at a = 1/4 and 3/4 read -0.25 and +0.24,
    so a wrong exponent clears the control |slope| >= 0.2 with 0.04 to spare."""
    grid = build_grid(2, (256, 256), (1.0, 1.0))
    radii = (0.4, 0.2, 0.1, 0.05)
    # per form and radius: the numerator and the two norms the exponent splits
    parts = {gn_l4_ratio: [], gn_linf_ratio: []}
    for r in radii:
        u = _bump(grid, r)
        grad = centered_gradient(grid, u, "dirichlet")
        parts[gn_l4_ratio].append((u, l4_norm(grid, u), l2_norm(grid, u), l2_norm(grid, grad)))
        parts[gn_linf_ratio].append((u, linf_norm(grid, u), l4_norm(grid, u),
                                     l4_norm(grid, grad)))
    for ratio_fn, per_radius in parts.items():
        slope = richardson_order([ratio_fn(grid, u) for u, *_ in per_radius], radii)
        assert abs(slope) <= 0.05, (ratio_fn.__name__, slope)
        for a in (0.25, 0.5, 0.75):
            ratios = [num / (low ** (1.0 - a) * high ** a) for _, num, low, high in per_radius]
            if a == 0.5:                    # the control's formula is the library's
                assert ratios == [ratio_fn(grid, u) for u, *_ in per_radius]
            else:
                assert abs(richardson_order(ratios, radii)) >= 0.2, (ratio_fn.__name__, a)


# ---------------------------------------------------------------------------
# random smooth fields
# ---------------------------------------------------------------------------

def test_random_smooth_scalar_is_deterministic_and_peak_normalized():
    u = random_smooth_scalar(G32, seed=3, amplitude=1.7)
    again = random_smooth_scalar(G32, seed=3, amplitude=1.7)
    assert np.array_equal(u, again)
    assert float(np.max(np.abs(u))) == pytest.approx(1.7, rel=1e-14)


def _full_grid_series(grid, seed, bc_kind, amplitude):
    """The series evaluated term by term on the whole grid: one scalar draw per
    np.ndindex term, full-grid sin/cos factors, products taken left to right."""
    rng = np.random.default_rng(seed)
    coords = grid.meshgrid()
    wave = np.sin if bc_kind == "dirichlet" else np.cos
    out = np.zeros(grid.cells)
    for idx in np.ndindex(*(6,) * grid.n_dim):
        k = np.asarray(idx) + 1
        term = rng.standard_normal() / float(np.sum(k.astype(float) ** 2))
        for ax in range(grid.n_dim):
            term = term * wave(k[ax] * np.pi * coords[ax] / grid.lengths[ax])
        out = out + term
    return amplitude * out / float(np.max(np.abs(out)))


@pytest.mark.parametrize("grid", [
    G32,
    build_grid(2, (16, 64), (1.0, 2.5)),
    build_grid(3, (8, 8, 16), (1.0, 1.0, 2.0)),
], ids=["square", "box", "3d"])
@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
def test_random_smooth_scalar_matches_full_grid_series_bitwise(grid, bc_kind):
    for seed in (0, 7, 1234):
        for amplitude in (1.0, 0.5):
            expected = _full_grid_series(grid, seed, bc_kind, amplitude)
            got = random_smooth_scalar(grid, seed, bc_kind, amplitude)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("grid", [
    G32,
    build_grid(2, (16, 64), (1.0, 2.5)),
    build_grid(3, (8, 8, 16), (1.0, 1.0, 2.0)),
], ids=["square", "box", "3d"])
def test_random_smooth_scalar_one_row_slabs_match_full_grid_series_bitwise(grid, monkeypatch):
    monkeypatch.setattr(diagnostics, "_SLAB_BYTES", 1)
    for bc_kind in ("dirichlet", "neumann"):
        for seed in (0, 7):
            expected = _full_grid_series(grid, seed, bc_kind, 0.5)
            got = random_smooth_scalar(grid, seed, bc_kind, 0.5)
            assert got.tobytes() == expected.tobytes()


def test_random_smooth_scalar_memory_stays_bounded_by_slabs():
    # all 216 terms of a 32^3 grid at once would hold about 56 MiB
    grid = build_grid(3, (32, 32, 32), (1.0, 1.0, 1.0))
    _mode_tables(grid, "dirichlet")
    tracemalloc.start()
    try:
        random_smooth_scalar(grid, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_random_smooth_tables_are_read_only_and_bc_kind_is_checked():
    tables, weights = _mode_tables(G32, "neumann")
    assert [t.shape for t in tables] == [(36, 32), (36, 32)] and weights.shape == (36,)
    for arr in (*tables, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _mode_tables(G32, "neumann") is _mode_tables(G32, "neumann")
    for bad in ("dirichelt", "Neumann", "periodic"):
        with pytest.raises(ValueError, match="unknown bc_kind"):
            random_smooth_scalar(G32, 0, bc_kind=bad)
        with pytest.raises(ValueError, match="unknown bc_kind"):
            random_smooth_vector(G32, 0, 3, bc_kind=bad)


def test_random_smooth_scalar_samples_one_continuum_function():
    # same seed on finer grids must sample the same function: the cell-center
    # quadrature of its L2 norm converges, it does not wander
    for seed in (0, 3):
        coarse = l2_norm(G16, random_smooth_scalar(G16, seed))
        fine = l2_norm(G64, random_smooth_scalar(G64, seed))
        assert abs(coarse - fine) / fine <= 0.05


def test_random_probe_state_is_solenoidal_with_anchored_director():
    from slcsim.grid import divergence

    [[state]] = random_probe_states(G32, [8], (1.0,))
    assert float(np.max(np.abs(divergence(G32, state.v)))) <= 1e-10
    mag = np.sqrt(np.sum(state.d**2, axis=0))
    assert 0.2 <= float(np.min(mag)) and float(np.max(mag)) <= 2.5


# ---------------------------------------------------------------------------
# duality refinement
# ---------------------------------------------------------------------------

def test_duality_gap_shrinks_at_second_order():
    gaps, spacings = [], []
    for g in (G16, G32, G64):
        gaps.append(float(np.mean([duality_gap(g, k) for k in range(4)])))
        spacings.append(g.spacings[0])
    assert gaps[0] > gaps[1] > gaps[2]
    assert 1.6 <= richardson_order(gaps, spacings) <= 2.4


def test_mixed_duality_needs_the_symmetrized_pairing():
    """With two distinct directors only the polarized combination is a
    continuum identity.  The one-sided pairing carries an O(1) antisymmetric
    residual that refinement cannot remove — checking it would be checking a
    false statement, so the probe must symmetrize."""

    def fields(g, seed):
        v = leray_project(g, random_smooth_vector(g, seed, 2, bc_kind="dirichlet"))
        d1 = random_smooth_vector(g, seed + 101, 3, bc_kind="neumann")
        d2 = random_smooth_vector(g, seed + 202, 3, bc_kind="neumann")
        return v, d1, d2

    def pairing(g, v, da, db):
        """<B2(v, db), Delta da> and <m(da, db), v>."""
        lam = g.spectrum().neumann_eigenvalues
        lap = inverse_cosine_transform(g, -lam * cosine_transform(g, da))
        lhs = float(np.sum(b2(g, v, db) * lap) * g.cell_volume)
        rhs = float(np.sum(m_term(g, da, db) * v) * g.cell_volume)
        return lhs, rhs

    def one_sided(g, seed):
        lhs, rhs = pairing(g, *fields(g, seed))
        return abs(lhs - rhs)

    def symmetrized(g, seed):
        v, d1, d2 = fields(g, seed)
        lhs12, rhs12 = pairing(g, v, d1, d2)
        lhs21, rhs21 = pairing(g, v, d2, d1)
        return abs((lhs12 + lhs21) - (rhs12 + rhs21))

    sym, lop = [], []
    for g in (G16, G32, G64):
        sym.append(float(np.mean([symmetrized(g, k) for k in range(4)])))
        lop.append(float(np.mean([one_sided(g, k) for k in range(4)])))
    assert sym[0] / sym[1] >= 3.0 and sym[1] / sym[2] >= 3.0
    assert all(v > 1.0 for v in lop)                      # stuck at O(1)
    assert max(lop) / min(lop) <= 1.3                     # ... and stable there


def test_richardson_order_recovers_exact_power_laws():
    h = np.array([1 / 16, 1 / 32, 1 / 64])
    assert richardson_order(h**2, h) == pytest.approx(2.0, abs=1e-12)
    assert richardson_order(3.0 * h**1.5, h) == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------------------
# energy records and the ensemble fit
# ---------------------------------------------------------------------------

def test_energy_records_expand_a_trajectory():
    rec = run_trajectory(_small_cfg())
    assert len(rec.times) == 6
    assert all(len(col) == 6 for col in rec.series.values())
    assert rec.times[0] == 0.0 and rec.series["phi_weight"][0] == 1.0
    assert np.all(rec.series["energy_q"] > 0.0)


def _fake_record(times, energy):
    return SimpleNamespace(times=np.asarray(times), series={"energy_q": np.asarray(energy)})


def test_ensemble_fit_recovers_exact_exponential_growth():
    t = np.linspace(0.0, 1.0, 11)
    energy = 2.0 * np.exp(0.7 * t)
    fit = ensemble_energy_bound([_fake_record(t, energy)])
    assert fit.c_growth == pytest.approx(0.7, abs=1e-10)
    assert fit.violation_count == 0
    # E(0) exp(C t), with E(0) = 2 read off the record, is the energy itself
    np.testing.assert_allclose(energy[0] * np.exp(fit.c_growth * fit.times), energy, rtol=1e-9)


def test_ensemble_fit_reports_zero_growth_for_decaying_energy():
    t = np.linspace(0.0, 1.0, 11)
    energy = np.exp(-t)
    fit = ensemble_energy_bound([_fake_record(t, energy)])
    assert fit.c_growth == 0.0
    assert fit.violation_count == 0
    assert np.all(energy <= energy[0] * np.exp(fit.c_growth * fit.times))


def test_ensemble_fit_reports_infinite_growth_for_a_nan_energy():
    # a nan mean energy bounds nothing, so its growth constant is infinite,
    # as for an infinite one; Python's max(0.0, nan) is 0.0
    t = np.linspace(0.0, 1.0, 5)
    fit = ensemble_energy_bound([_fake_record(t, [1.0, 2.0, np.nan, np.nan, np.nan])])
    assert fit.c_growth == np.inf
    assert fit.violation_count == 0


def test_ensemble_fit_truncates_to_common_length_and_averages():
    t_long = np.linspace(0.0, 1.0, 9)
    growing = 2.0 * np.exp(t_long)
    fit = ensemble_energy_bound([
        _fake_record(t_long, growing),
        _fake_record(t_long[:5], np.full(5, 4.0)),
    ])
    assert len(fit.times) == 5
    # over the common range t <= 0.5 the mean of the two records is e^t + 2,
    # so E(0) = 3, and its steepest log-slope against E(0) is the one to 0.5
    assert fit.c_growth == pytest.approx(np.log((np.exp(0.5) + 2.0) / 3.0) / 0.5, rel=1e-12)


def test_ensemble_fit_rejects_empty_or_zero_energy_input():
    with pytest.raises(ConfigError):
        ensemble_energy_bound([])
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigError):
        ensemble_energy_bound([_fake_record(t, np.zeros(5))])


# ---------------------------------------------------------------------------
# contraction and the probe suite
# ---------------------------------------------------------------------------

def test_contraction_ratios_shrink_with_the_window():
    cfg = SimConfig(n_dim=2, cells=(16, 16), lengths=(1.0, 1.0),
                    dt=1e-3, horizon=0.02, mode_count=8, scheme="picard")
    slope, ratios = contraction_slopes(cfg, (0.004, 0.008))
    assert all(0.0 < r < 1.0 for r in ratios)
    assert ratios[0] < ratios[1]         # shorter window contracts harder
    assert 0.0 < slope < 1.5


def test_contraction_slope_fits_the_integrated_window_lengths():
    # dt = 6e-5 does not divide the windows: they run 67 and 133 steps
    cfg = SimConfig(n_dim=2, cells=(16, 16), lengths=(1.0, 1.0), dt=6e-5,
                    horizon=0.012, mode_count=8, scheme="picard", window=0.0012)
    slope, ratios = contraction_slopes(cfg, (0.004, 0.008))
    assert slope == richardson_order(ratios, (67 * cfg.dt, 133 * cfg.dt))


def test_probe_suite_passes_and_carries_bounds():
    results = probe_suite(seed=0)
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.value} not in [{r.low}, {r.high}] {r.detail}" for r in failed]
    names = {r.name for r in results}
    assert {"b1_skew_symmetry", "duality_order", "lipschitz_amplitude_stability"} <= names
    for r in results:
        assert r.low <= r.high and np.isfinite(r.value)
        assert type(r.value) is float, r.name   # built from Python floats, no NumPy scalar

