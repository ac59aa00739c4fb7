"""Numerically checkable structure: energy functionals, inequality probes, fits.

Everything here is post-hoc analysis on states or trajectory records.  The
probes estimate the constants of interpolation/Lipschitz inequalities on
batches of random smooth fields; tests assert stability of those estimates
(across refinement, amplitude) rather than specific values, because the
underlying constants are existence-level and the discrete norms carry
mesh-dependent equivalence factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .fields import (
    State,
    h_norm,
    grad_seminorm,
    l2_norm,
    l4_norm,
    linf_norm,
    spectral_summary,
)
from .grid import Grid, build_grid, centered_gradient, cosine_transform
from .grid import inverse_cosine_transform
from .operators import b1, b2, drift, f_penalty, leray_project, m_term

__all__ = [
    "EnsembleFit",
    "ProbeResult",
    "max_principle_gap",
    "penalty_energy",
    "psi_functional",
    "young_constant",
    "phi_rate",
    "lipschitz_probe_F",
    "remark_ratio",
    "gn_l4_ratio",
    "gn_linf_ratio",
    "random_smooth_scalar",
    "random_smooth_vector",
    "random_probe_state",
    "duality_gap",
    "duality_gap_mixed",
    "richardson_order",
    "ensemble_energy_bound",
    "contraction_slopes",
    "probe_suite",
]


# ---------------------------------------------------------------------------
# pointwise functionals
# ---------------------------------------------------------------------------

def max_principle_gap(grid: Grid, d: np.ndarray) -> float:
    """Cell sum of ((|d|^2 - 1)_+)^2; zero iff |d| <= 1 everywhere."""
    excess = np.maximum(np.sum(d * d, axis=0) - 1.0, 0.0)
    return float(np.sum(excess * excess) * grid.cell_volume)


def penalty_energy(grid: Grid, d: np.ndarray, eps: float) -> float:
    """Potential of the penalization drift: (1/4eps^2) sum ((|d|^2-1)_-)^2."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    deficit = np.minimum(np.sum(d * d, axis=0) - 1.0, 0.0)
    return float(np.sum(deficit * deficit) * grid.cell_volume / (4.0 * eps * eps))


def _director_laplacian(grid: Grid, d: np.ndarray) -> np.ndarray:
    """Delta d with the continuum eigenvalue of each cosine mode."""
    lam = grid.spectrum().neumann_eigenvalues
    return inverse_cosine_transform(grid, -lam * cosine_transform(grid, d))


def psi_functional(grid: Grid, d: np.ndarray, eps: float) -> float:
    """Squared residual |Delta d - f(d)|^2 with the Laplacian taken spectrally."""
    resid = _director_laplacian(grid, d) - f_penalty(d, eps)
    return l2_norm(grid, resid) ** 2


# ---------------------------------------------------------------------------
# the weight Phi and its Young constant
# ---------------------------------------------------------------------------

def young_constant(alpha: float, p: float, q: float) -> float:
    """C in a*b <= C*a^p + alpha*b^q for conjugate exponents 1/p + 1/q = 1."""
    if alpha <= 0.0 or p <= 1.0 or q <= 1.0:
        raise DomainError("need alpha > 0 and p, q > 1")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise DomainError("exponents are not conjugate")
    return (alpha * q) ** (-p / q) / p


def _phi_exponents(n_dim: int) -> tuple[float, float]:
    if n_dim == 4:
        raise DomainError("exponent 2n/(4-n) is singular at n = 4")
    return 8.0 / (n_dim + 4.0), 8.0 / (4.0 - n_dim)


def phi_rate(v_l2: float, a_half_v: float, n_dim: int) -> float:
    """Instantaneous rate C_phi * |v|^2 * |A^{1/2}v|^{2n/(4-n)}, with C_phi the
    Young constant at alpha = 1 for the exponents of dimension n."""
    c_phi = young_constant(1.0, *_phi_exponents(n_dim))
    return c_phi * v_l2**2 * a_half_v ** (2.0 * n_dim / (4.0 - n_dim))


# ---------------------------------------------------------------------------
# inequality probes
# ---------------------------------------------------------------------------

def lipschitz_probe_F(y1: State, y2: State) -> float:
    """Ratio of |F(y1)-F(y2)|_H to the two-term bracket with exponent n/4, at eps = 1.

    The bracket is |y1-y2|_V * ( |y1|_V^{1-a} |y1|_E^a
    + |y1-y2|_E^a |y1-y2|_V^{-a} |y2|_V + 1 ); its trailing +1 keeps the
    ratio defined whenever the states differ at all.
    """
    grid = y1.grid
    a = grid.n_dim / 4.0
    diff = State(grid, y1.v - y2.v, y1.d - y2.d, y1.t)
    s_diff = spectral_summary(diff)
    dv = s_diff["v_norm"]
    if dv == 0.0 and l2_norm(grid, diff.d) == 0.0:
        raise DomainError("identical states give an undefined ratio")
    s1 = spectral_summary(y1)
    s2 = spectral_summary(y2)
    # the drift without its Ito correction is -F, and F(y1) - F(y2) is the
    # exact negation of the drift difference, so the norms agree bit for bit
    dv1, dd1 = drift(grid, y1.v, y1.d, 1.0)
    dv2, dd2 = drift(grid, y2.v, y2.d, 1.0)
    num = np.sqrt(
        l2_norm(grid, dv1 - dv2) ** 2 + h_norm(grid, dd1 - dd2, 1, "neumann") ** 2
    )
    bracket = (
        s1["v_norm"] ** (1.0 - a) * s1["e_norm"] ** a
        + s_diff["e_norm"] ** a * dv ** (-a) * s2["v_norm"]
        + 1.0
    )
    return float(num / (dv * bracket))


def remark_ratio(grid: Grid, d: np.ndarray) -> float:
    """|d|_{H2}^2 against the residual bound psi + 2*c_tilde*|d|^2, at eps = 1
    and c_tilde = 2."""
    denom = psi_functional(grid, d, 1.0) + 4.0 * l2_norm(grid, d) ** 2
    return h_norm(grid, d, 2, "neumann") ** 2 / denom


def _component_gradients(grid: Grid, u: np.ndarray) -> np.ndarray:
    comps = u.reshape(-1, *grid.cells)
    return np.concatenate([centered_gradient(grid, c, "dirichlet") for c in comps])


def gn_l4_ratio(grid: Grid, u: np.ndarray) -> float:
    """|u|_{L4} over |u|^{1-a} |grad u|^a with a = n/4, for u vanishing on the walls."""
    a = grid.n_dim / 4.0
    grad = _component_gradients(grid, u)
    denom = l2_norm(grid, u) ** (1.0 - a) * l2_norm(grid, grad) ** a
    if denom == 0.0:
        raise DomainError("degenerate field for the interpolation probe")
    return l4_norm(grid, u) / denom


def gn_linf_ratio(grid: Grid, u: np.ndarray) -> float:
    """|u|_inf over |u|_{L4}^{1-a} |grad u|_{L4}^a with a = n/4, for u vanishing on the walls."""
    a = grid.n_dim / 4.0
    grad = _component_gradients(grid, u)
    denom = l4_norm(grid, u) ** (1.0 - a) * l4_norm(grid, grad) ** a
    if denom == 0.0:
        raise DomainError("degenerate field for the interpolation probe")
    return linf_norm(grid, u) / denom


# ---------------------------------------------------------------------------
# random smooth fields (grid-independent continuum functions)
# ---------------------------------------------------------------------------

_MODES = 6
_WAVES = {"dirichlet": np.sin, "neumann": np.cos}
# Bytes of series terms materialized at once: the first axis is cut into slabs
# this size, so a call's temporaries stay O(grid) (every probe grid is one slab).
_SLAB_BYTES = 4 << 20


@lru_cache(maxsize=32)
def _mode_tables(grid: Grid, bc_kind: str) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Per axis, the (6^n, n_ax) rows wave(k_ax pi x / L) of the series terms
    in ``np.ndindex`` order at the cell centers, and the weights |k|^2 of the
    same terms.  Built once per (grid, bc_kind); the arrays are read-only."""
    wave = _WAVES[bc_kind]
    k = np.arange(1, _MODES + 1)
    idx = np.array(list(np.ndindex(*(_MODES,) * grid.n_dim)))
    rows = []
    for ax in range(grid.n_dim):
        table = wave(k[:, None] * np.pi * grid.axis_centers(ax) / grid.lengths[ax])
        row = table[idx[:, ax]]
        row.setflags(write=False)
        rows.append(row)
    weights = np.sum((idx + 1.0) ** 2, axis=1)
    weights.setflags(write=False)
    return tuple(rows), weights


def random_smooth_scalar(
    grid: Grid, seed: int, bc_kind: str = "dirichlet", amplitude: float = 1.0
) -> np.ndarray:
    """Random series over the first 6 modes per axis, with coefficients
    decaying as 1/|k|^2, sampled at cell centers.

    The coefficients depend only on the seed, so refining the grid samples
    the *same* continuum function — exactly what refinement probes need.
    Each term c * f_0(x_0) * ... * f_{n-1}(x_{n-1}) is an outer product of
    cached 1D factors, multiplied left to right; one ordered reduction per
    slab of the first axis adds the terms to 0.0 in ``np.ndindex`` order,
    which is the arithmetic of the full-grid evaluation bit for bit.
    """
    if bc_kind not in _WAVES:
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    rows, weights = _mode_tables(grid, bc_kind)
    coeffs = np.random.default_rng(seed).standard_normal(weights.size) / weights
    lead = coeffs[:, None] * rows[0]
    out = np.empty(grid.cells)
    slab = max(1, _SLAB_BYTES // (8 * weights.size * math.prod(grid.cells[1:])))
    for lo in range(0, grid.cells[0], slab):
        terms = lead[:, lo:lo + slab]
        for row in rows[1:]:
            terms = np.einsum("m...,mz->m...z", terms, row)
        np.add.reduce(terms, axis=0, initial=0.0, out=out[lo:lo + slab])
    peak = float(np.max(np.abs(out)))
    return amplitude * out / peak if peak > 0 else out


def random_smooth_vector(
    grid: Grid,
    seed: int,
    components: int,
    bc_kind: str = "dirichlet",
    amplitude: float = 1.0,
) -> np.ndarray:
    return np.stack(
        [
            random_smooth_scalar(grid, seed * 977 + c, bc_kind, amplitude)
            for c in range(components)
        ]
    )


def random_probe_state(grid: Grid, seed: int, amplitude: float = 1.0) -> State:
    """Solenoidal random velocity plus a near-unit random director."""
    v = leray_project(
        grid, random_smooth_vector(grid, seed, grid.n_dim, bc_kind="dirichlet", amplitude=amplitude)
    )
    d = random_smooth_vector(grid, seed + 1, 3, bc_kind="neumann", amplitude=0.5 * amplitude)
    d[2] += 1.0  # anchor away from zero so |d| is O(1)
    return State(grid=grid, v=v, d=d, t=0.0)


# ---------------------------------------------------------------------------
# duality gap and Richardson order
# ---------------------------------------------------------------------------

def duality_gap(grid: Grid, seed: int = 0) -> float:
    """|<B2(v,d), Delta d> - <m(d,d), v>| on one random smooth pair.

    With one director argument the continuum identity is exact; the discrete
    gap is pure discretization error, so refining the grid must shrink it at
    second order.
    """
    v = leray_project(grid, random_smooth_vector(grid, seed, grid.n_dim, bc_kind="dirichlet"))
    d = random_smooth_vector(grid, seed + 101, 3, bc_kind="neumann")
    lhs = float(np.sum(b2(grid, v, d) * _director_laplacian(grid, d)) * grid.cell_volume)
    rhs = float(np.sum(m_term(grid, d, d) * v) * grid.cell_volume)
    return abs(lhs - rhs)


def duality_gap_mixed(grid: Grid, seed: int = 0) -> float:
    """Polarized two-director version of the duality gap.

    For distinct director arguments only the symmetrized combination is an
    exact continuum identity (the one-sided pairing differs by a term that
    is antisymmetric under swapping the directors), so that is the
    combination whose discrete gap must vanish at second order.
    """
    v = leray_project(grid, random_smooth_vector(grid, seed, grid.n_dim, bc_kind="dirichlet"))
    d1 = random_smooth_vector(grid, seed + 101, 3, bc_kind="neumann")
    d2 = random_smooth_vector(grid, seed + 202, 3, bc_kind="neumann")
    lhs = float(np.sum(b2(grid, v, d2) * _director_laplacian(grid, d1)) * grid.cell_volume)
    lhs += float(np.sum(b2(grid, v, d1) * _director_laplacian(grid, d2)) * grid.cell_volume)
    rhs = float(
        np.sum((m_term(grid, d1, d2) + m_term(grid, d2, d1)) * v) * grid.cell_volume
    )
    return abs(lhs - rhs)


def richardson_order(values, spacings) -> float:
    """Least-squares slope of log(value) against log(h)."""
    x = np.log(np.asarray(spacings, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# ensemble growth fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleFit:
    c_growth: float
    violation_count: int
    e0: float
    n_trajectories: int
    times: np.ndarray
    mean_energy: np.ndarray


def ensemble_energy_bound(records) -> EnsembleFit:
    """Smallest C with mean energy_q(t) <= E(0) * exp(C t) over the horizon.

    Trajectories that halted early are truncated to the common time range.
    Statistically meaningful fits need a few dozen trajectories; the fit
    itself is defined for any nonempty ensemble (size 1 reduces to a single
    trajectory).  The energy_q series already carry the configured exponent.
    """
    if not records:
        raise ConfigError("ensemble fit needs at least one trajectory record")
    n = min(len(r.times) for r in records)
    times = records[0].times[:n]
    mean = np.mean([r.series["energy_q"][:n] for r in records], axis=0)
    e0 = float(mean[0])
    if e0 <= 0.0:
        raise ConfigError("initial ensemble energy must be positive for a growth fit")
    with np.errstate(divide="ignore"):
        slopes = np.log(mean[1:] / e0) / times[1:]
    c_fit = max(0.0, float(np.max(slopes))) if n > 1 else 0.0
    bound = e0 * np.exp(c_fit * times)
    violations = int(np.sum(mean > bound * (1.0 + 1e-9)))
    return EnsembleFit(
        c_growth=c_fit,
        violation_count=violations,
        e0=e0,
        n_trajectories=len(records),
        times=times,
        mean_energy=mean,
    )


# ---------------------------------------------------------------------------
# contraction-slope probe
# ---------------------------------------------------------------------------

def contraction_slopes(cfg, windows) -> tuple[float, list[float]]:
    """Picard contraction factor versus window length, on the first window.

    Returns the log-log slope of the per-window mean contraction ratio
    against the integrated window length (whole steps of the refined dt),
    together with the measured ratios.  The step size is refined so even the
    shortest window holds >= 64 steps; otherwise quadrature error masks the
    continuum scaling of the factor.
    """
    from .integrators import initial_state, picard_solve
    from .noise import sample_path
    from .operators import OperatorCache

    grid = cfg.grid()
    cache = OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
    y0 = initial_state(cfg, grid)
    dt = min(cfg.dt, min(windows) / 64.0)
    ratios = []
    lengths = []
    for w in windows:
        n_win = max(2, int(round(w / dt)))
        lengths.append(n_win * dt)
        path = sample_path(cfg.seed, 0, dt, n_win, cfg.mode_count)
        _, stats = picard_solve(cache, cfg, y0, path, 0, n_win)
        usable = [r for r, dist in zip(stats.ratios, stats.distances[1:]) if dist > 1e-13]
        if not usable:
            raise DomainError("window converged too fast to measure a contraction ratio")
        ratios.append(float(np.exp(np.mean(np.log(usable)))))
    slope = richardson_order(ratios, lengths)
    return slope, ratios


# ---------------------------------------------------------------------------
# probe suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    name: str
    value: float
    low: float
    high: float
    passed: bool
    detail: str = ""


def _bounded(name: str, value: float, low: float, high: float, detail: str = "") -> ProbeResult:
    return ProbeResult(name, float(value), low, high, bool(low <= value <= high), detail)


def probe_suite(seed: int = 0, include_contraction: bool = False, cfg=None) -> list[ProbeResult]:
    """The mechanical inequality checks, sized for seconds not minutes."""
    results: list[ProbeResult] = []
    g32 = build_grid(2, (32, 32), (1.0, 1.0))

    # bilinear-form cancellations on a batch of random smooth fields
    worst_b1 = 0.0
    worst_b2 = 0.0
    for k in range(100):
        u = leray_project(g32, random_smooth_vector(g32, seed + 3 * k, 2))
        w = random_smooth_vector(g32, seed + 3 * k + 1, 2)
        d = random_smooth_vector(g32, seed + 3 * k + 2, 3, bc_kind="neumann")
        scale_1 = (
            l2_norm(g32, u) * grad_seminorm(g32, w, "dirichlet") * l2_norm(g32, w) + 1e-300
        )
        pairing = abs(float(np.sum(b1(g32, u, w) * w) * g32.cell_volume))
        worst_b1 = max(worst_b1, pairing / scale_1)
        scale_2 = (
            l2_norm(g32, u) * grad_seminorm(g32, d, "neumann") * l2_norm(g32, d) + 1e-300
        )
        pairing = abs(float(np.sum(b2(g32, u, d) * d) * g32.cell_volume))
        worst_b2 = max(worst_b2, pairing / scale_2)
    results.append(_bounded("b1_skew_symmetry", worst_b1, 0.0, 1e-11))
    results.append(_bounded("b2_skew_symmetry", worst_b2, 0.0, 1e-11))

    # projection identities
    worst_idem = 0.0
    worst_grad = 0.0
    for k in range(20):
        F = random_smooth_vector(g32, seed + 1000 + k, 2)
        once = leray_project(g32, F)
        twice = leray_project(g32, once)
        scale = l2_norm(g32, F) + 1e-300
        worst_idem = max(worst_idem, l2_norm(g32, twice - once) / scale)
        p = random_smooth_scalar(g32, seed + 2000 + k, bc_kind="neumann")
        gp = centered_gradient(g32, p, "neumann")
        worst_grad = max(worst_grad, l2_norm(g32, leray_project(g32, gp)) / (l2_norm(g32, gp) + 1e-300))
    results.append(_bounded("leray_idempotence", worst_idem, 0.0, 1e-10))
    results.append(_bounded("leray_gradient_annihilation", worst_grad, 0.0, 1e-10))

    # duality gap Richardson order across 16/32/64.  A single field pair sits
    # too close to the pre-asymptotic regime at 16^2 for a clean slope, so the
    # gap is averaged over a small seed batch before fitting.
    gaps = []
    spacings = []
    for cells in (16, 32, 64):
        g = build_grid(2, (cells, cells), (1.0, 1.0))
        gaps.append(float(np.mean([duality_gap(g, seed + k) for k in range(8)])))
        spacings.append(g.spacings[0])
    results.append(
        _bounded("duality_order", richardson_order(gaps, spacings), 1.7, 2.3,
                 detail=f"gaps={gaps}")
    )

    # interpolation-constant stability across refinement
    for label, fn in (("gn_l4", gn_l4_ratio), ("gn_linf", gn_linf_ratio)):
        per_grid = []
        for cells in (16, 64):
            g = build_grid(2, (cells, cells), (1.0, 1.0))
            batch = [
                fn(g, random_smooth_scalar(g, seed + 31 * k)) for k in range(20)
            ]
            per_grid.append(max(batch))
        results.append(
            _bounded(f"{label}_refinement_stability", max(per_grid) / min(per_grid), 1.0, 2.0,
                     detail=f"maxima={per_grid}")
        )

    per_grid = []
    for cells in (16, 64):
        g = build_grid(2, (cells, cells), (1.0, 1.0))
        batch = [
            remark_ratio(g, random_smooth_vector(g, seed + 77 * k, 3, bc_kind="neumann"))
            for k in range(20)
        ]
        per_grid.append(max(batch))
    results.append(
        _bounded("remark_bound_stability", max(per_grid) / min(per_grid), 1.0, 2.0,
                 detail=f"maxima={per_grid}")
    )

    # Lipschitz constant estimate across an amplitude sweep
    estimates = []
    for amp in (0.5, 1.0, 2.0):
        worst = 0.0
        for k in range(100):
            y1 = random_probe_state(g32, seed + 5 * k, amplitude=amp)
            y2 = random_probe_state(g32, seed + 5 * k + 50000, amplitude=amp)
            worst = max(worst, lipschitz_probe_F(y1, y2))
        estimates.append(worst)
    results.append(
        _bounded("lipschitz_amplitude_stability", max(estimates) / min(estimates), 1.0, 3.0,
                 detail=f"estimates={estimates}")
    )

    if include_contraction:
        if cfg is None:
            raise ConfigError("contraction probe needs a config")
        windows = (0.015625, 0.03125, 0.0625)
        slope, ratios = contraction_slopes(cfg, windows)
        results.append(
            _bounded("contraction_slope", slope, 0.15, 0.35, detail=f"ratios={ratios}")
        )
    return results
