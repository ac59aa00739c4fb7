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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .fields import (
    State,
    _h_norms,
    _l2_norms,
    _summaries,
    grad_seminorm,
    h_norm,
    l2_norm,
    l4_norm,
    linf_norm,
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
    "random_probe_states",
    "duality_gap",
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
    Young constant at alpha = 1 for the exponents of dimension n; inf where
    a finite summary overflows, since Python float ** raises there."""
    c_phi = young_constant(1.0, *_phi_exponents(n_dim))
    try:
        return c_phi * v_l2**2 * a_half_v ** (2.0 * n_dim / (4.0 - n_dim))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# inequality probes
# ---------------------------------------------------------------------------

def lipschitz_probe_F(y1s, y2s) -> list[float]:
    """Per pair of states (y1, y2), the ratio of |F(y1)-F(y2)|_H to the
    two-term bracket with exponent n/4, at eps = 1.

    The bracket is |y1-y2|_V * ( |y1|_V^{1-a} |y1|_E^a
    + |y1-y2|_E^a |y1-y2|_V^{-a} |y2|_V + 1 ); its trailing +1 keeps the
    ratio defined whenever the states differ at all.  The pairs, all on one
    grid, run as one batch; each ratio equals that of the pair alone.
    """
    if not y1s or len(y1s) != len(y2s):
        raise ValueError("need one or more pairs of states")
    grid = y1s[0].grid
    a = grid.n_dim / 4.0
    v1, v2 = (np.stack([y.v for y in ys], axis=1) for ys in (y1s, y2s))
    d1, d2 = (np.stack([y.d for y in ys], axis=1) for ys in (y1s, y2s))
    diffs = _summaries(grid, v1 - v2, d1 - d2)
    firsts = _summaries(grid, v1, d1)
    seconds = _summaries(grid, v2, d2)
    # the drift without its Ito correction is -F, and F(y1) - F(y2) is the
    # exact negation of the drift difference, so the norms agree bit for bit
    fv1, fd1 = drift(grid, v1, d1, 1.0)
    fv2, fd2 = drift(grid, v2, d2, 1.0)
    l2_dv = _l2_norms(grid, fv1 - fv2).tolist()
    h1_dd = _h_norms(grid, fd1 - fd2, 1, "neumann").tolist()
    ratios = []
    for diff, s1, s2, l2, h1 in zip(diffs, firsts, seconds, l2_dv, h1_dd):
        dv = diff["v_norm"]
        if dv == 0.0:
            raise DomainError("states whose difference has zero V-norm give an undefined ratio")
        num = np.sqrt(l2 ** 2 + h1 ** 2)
        bracket = (
            s1["v_norm"] ** (1.0 - a) * s1["e_norm"] ** a
            + diff["e_norm"] ** a * dv ** (-a) * s2["v_norm"]
            + 1.0
        )
        ratios.append(float(num / (dv * bracket)))
    return ratios


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
# Seeds the probe suite's 100-field loops draw and check as one batch: enough
# to spread the per-call cost of the operators over 32^2 fields, few enough
# that the suite's peak RSS grows by about 1.5 MiB (0.4 MiB per seed).
_SEEDS_PER_BATCH = 4


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


def _series(grid: Grid, seeds, bc_kind: str, amplitude: float) -> np.ndarray:
    """``random_smooth_scalar`` of each seed, along a leading item axis:
    (len(seeds), *cells).  The terms are summed one item at a time, a slab
    of the first grid axis at once, so the temporaries stay within
    ``_SLAB_BYTES`` down to one row and within cache for a probe grid."""
    if bc_kind not in _WAVES:
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    rows, weights = _mode_tables(grid, bc_kind)
    n = len(seeds)
    out = np.empty((n, *grid.cells))
    slab = max(1, _SLAB_BYTES // (8 * weights.size * math.prod(grid.cells[1:])))
    for item, seed in zip(out, seeds):
        coeffs = np.random.default_rng(seed).standard_normal(weights.size) / weights
        lead = coeffs[:, None] * rows[0]
        for lo in range(0, grid.cells[0], slab):
            terms = lead[:, lo:lo + slab]
            for row in rows[1:]:
                terms = np.einsum("m...,mz->m...z", terms, row)
            np.add.reduce(terms, axis=0, initial=0.0, out=item[lo:lo + slab])
    peak = np.max(np.abs(out).reshape(n, -1), axis=1).reshape(n, *(1,) * grid.n_dim)
    np.divide(amplitude * out, peak, out=out, where=peak > 0)
    return out


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
    return _series(grid, (seed,), bc_kind, amplitude)[0]


def _smooth_vectors(grid: Grid, seeds, components: int, bc_kind: str = "dirichlet",
                    amplitude: float = 1.0) -> np.ndarray:
    """``random_smooth_vector`` of each seed as one batch (component, item, *cells)."""
    scalar_seeds = [s * 977 + c for c in range(components) for s in seeds]
    series = _series(grid, scalar_seeds, bc_kind, amplitude)
    return series.reshape(components, len(seeds), *grid.cells)


def random_smooth_vector(
    grid: Grid,
    seed: int,
    components: int,
    bc_kind: str = "dirichlet",
    amplitude: float = 1.0,
) -> np.ndarray:
    return _smooth_vectors(grid, (seed,), components, bc_kind, amplitude)[:, 0]


def random_probe_states(grid: Grid, seeds, amplitudes) -> Iterator[list[State]]:
    """Solenoidal random velocity plus a near-unit random director: per
    amplitude a, one state per seed, v = a * V and d = a * D + e_2 for that
    seed's draw of V and D.  The seeds are drawn as one batch when the first
    amplitude is read, and each amplitude's states are scaled when it is
    read, so a caller that reads one amplitude at a time holds one.

    For a power-of-two a this is bit for bit the state drawn at amplitude a
    (velocity ``leray_project`` of the series at a, director the series at
    0.5 a plus e_2): scaling by 2^k commutes exactly with ``amplitude * out /
    peak`` and with every linear step of ``leray_project``, since no value
    here is near overflow or underflow.
    """
    v = leray_project(grid, _smooth_vectors(grid, seeds, grid.n_dim, bc_kind="dirichlet"))
    d = _smooth_vectors(grid, [s + 1 for s in seeds], 3, bc_kind="neumann", amplitude=0.5)
    for a in amplitudes:
        v_a = a * v
        d_a = a * d
        d_a[2] += 1.0  # anchor away from zero so |d| is O(1)
        yield [State(grid, v_a[:, i], d_a[:, i], 0.0) for i in range(len(seeds))]


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
    times: np.ndarray


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
    c_fit = float(np.max(slopes)) if n > 1 else 0.0
    # a nan slope comes from a non-finite mean energy, as an infinite one does
    c_fit = math.inf if math.isnan(c_fit) else max(0.0, c_fit)
    # t = 0 holds e0 itself, so it is skipped: C t there is inf * 0 = nan when
    # an overflowed energy makes C infinite
    bound = e0 * np.exp(c_fit * times[1:])
    violations = int(np.sum(mean[1:] > bound * (1.0 + 1e-9)))
    return EnsembleFit(
        c_growth=c_fit,
        violation_count=violations,
        times=times,
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
        n_win = int(round(w / dt))
        lengths.append(n_win * dt)
        path = sample_path(cfg.seed, 0, dt, n_win, cfg.mode_count)
        _, stats = picard_solve(cache, cfg, y0, path, 0, n_win)
        ds = stats.distances
        usable = [b / a for a, b in zip(ds, ds[1:]) if a > 0.0 and b > 1e-13]
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
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.low <= self.value <= self.high


def _bounded(name: str, value: float, low: float, high: float, detail: str = "") -> ProbeResult:
    return ProbeResult(name, float(value), low, high, detail)


def _chunks(count: int):
    """range(count) in consecutive runs of at most ``_SEEDS_PER_BATCH``."""
    for lo in range(0, count, _SEEDS_PER_BATCH):
        yield range(lo, min(lo + _SEEDS_PER_BATCH, count))


def probe_suite(seed: int = 0, cfg=None) -> list[ProbeResult]:
    """The mechanical inequality checks, sized for seconds not minutes; the
    Picard contraction probe runs on ``cfg`` when one is given."""
    results: list[ProbeResult] = []
    g32 = build_grid(2, (32, 32), (1.0, 1.0))

    # bilinear-form cancellations on 100 random smooth fields
    worst = {"b1_skew_symmetry": 0.0, "b2_skew_symmetry": 0.0}
    for ks in _chunks(100):
        u = leray_project(g32, _smooth_vectors(g32, [seed + 3 * k for k in ks], 2))
        w = _smooth_vectors(g32, [seed + 3 * k + 1 for k in ks], 2)
        d = _smooth_vectors(g32, [seed + 3 * k + 2 for k in ks], 3, bc_kind="neumann")
        l2_u = _l2_norms(g32, u).tolist()
        for name, form, x, bc_kind in (("b1_skew_symmetry", b1, w, "dirichlet"),
                                       ("b2_skew_symmetry", b2, d, "neumann")):
            # each item's pairing sums over its components and cells at once
            product = np.ascontiguousarray((form(g32, u, x) * x).swapaxes(0, 1))
            pairings = np.sum(product.reshape(len(ks), -1), axis=1) * g32.cell_volume
            for i, (p, n_u, n_x) in enumerate(zip(pairings, l2_u, _l2_norms(g32, x).tolist())):
                scale = n_u * grad_seminorm(g32, x[:, i], bc_kind) * n_x + 1e-300
                worst[name] = max(worst[name], abs(float(p)) / scale)
    for name, value in worst.items():
        results.append(_bounded(name, value, 0.0, 1e-11))

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

    # interpolation-constant stability across refinement; both ratios read
    # each field, so it is drawn once
    maxima = {"gn_l4": [], "gn_linf": []}
    for cells in (16, 64):
        g = build_grid(2, (cells, cells), (1.0, 1.0))
        worst_l4 = worst_linf = 0.0
        for k in range(20):
            u = random_smooth_scalar(g, seed + 31 * k)
            worst_l4 = max(worst_l4, gn_l4_ratio(g, u))
            worst_linf = max(worst_linf, gn_linf_ratio(g, u))
        maxima["gn_l4"].append(worst_l4)
        maxima["gn_linf"].append(worst_linf)
    for label, per_grid in maxima.items():
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

    # Lipschitz constant estimate across an amplitude sweep; each seed's
    # fields are drawn once and scaled to one amplitude at a time
    amplitudes = (0.5, 1.0, 2.0)
    estimates = [0.0] * len(amplitudes)
    for ks in _chunks(100):
        firsts = random_probe_states(g32, [seed + 5 * k for k in ks], amplitudes)
        seconds = random_probe_states(g32, [seed + 5 * k + 50000 for k in ks], amplitudes)
        estimates = [max(e, *lipschitz_probe_F(y1s, y2s))
                     for e, y1s, y2s in zip(estimates, firsts, seconds)]
    results.append(
        _bounded("lipschitz_amplitude_stability", max(estimates) / min(estimates), 1.0, 3.0,
                 detail=f"estimates={estimates}")
    )

    if cfg is not None:
        windows = (0.015625, 0.03125, 0.0625)
        slope, ratios = contraction_slopes(cfg, windows)
        results.append(
            _bounded("contraction_slope", slope, 0.15, 0.35, detail=f"ratios={ratios}")
        )
    return results
