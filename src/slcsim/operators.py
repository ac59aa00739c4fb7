"""Spatial operators of the coupled flow/director system.

Everything here acts on cell-centered arrays from :mod:`slcsim.grid`.  The
Leray projection, the two advection forms, and the Ericksen stress are built
from the conservative centered-difference family, so the exactness chain

    projection is orthogonal and idempotent
    -> projected fields have exactly zero centered divergence
    -> the face-flux advection forms are exactly energy-neutral

holds to rounding error, not merely to O(h^2).  Semigroups and fractional
powers act diagonally on transform coefficients with continuum eigenvalue
multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .grid import (
    Grid,
    _outer_sum,
    centered_diff,
    centered_gradient,
    cosine_transform,
    divergence,
    inverse_cosine_transform,
    inverse_sine_transform,
    sine_transform,
)

__all__ = [
    "MagneticFieldSpec",
    "NoiseCoefficientSpec",
    "OperatorCache",
    "leray_project",
    "pressure_of",
    "semigroup_director",
    "semigroup_velocity_exact",
    "semigroup_velocity_step",
    "b1",
    "b2",
    "m_term",
    "ericksen_divergence",
    "f_penalty",
    "g_cross",
    "g2_cross",
    "assemble_L",
    "drift",
    "velocity_noise_increment",
    "director_noise_increment",
]


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------

def pressure_of(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Zero-mean pressure whose centered gradient removes the divergence of F."""
    rhs = divergence(grid, F)
    rhs_hat = cosine_transform(grid, rhs)
    sym = grid.spectrum().projection_symbol
    p_hat = np.zeros_like(rhs_hat)
    # centered-div o centered-grad acts as -projection_symbol on cosine modes
    np.divide(-rhs_hat, sym, out=p_hat, where=sym > 0.0)
    return inverse_cosine_transform(grid, p_hat)


def leray_project(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto discretely divergence-free fields."""
    p = pressure_of(grid, F)
    return F - centered_gradient(grid, p, "neumann")


# ---------------------------------------------------------------------------
# semigroups
# ---------------------------------------------------------------------------

def semigroup_director(grid: Grid, d: np.ndarray, t: float) -> np.ndarray:
    """Heat semigroup of the Neumann Laplacian: exact exponential per cosine mode."""
    if t < 0.0:
        raise DomainError(f"semigroup time must be nonnegative, got {t}")
    lam = grid.spectrum().neumann_eigenvalues
    coeff = cosine_transform(grid, d)
    return inverse_cosine_transform(grid, coeff * np.exp(-lam * t))


def semigroup_velocity_exact(grid: Grid, v: np.ndarray, t: float) -> np.ndarray:
    """Exact diffusion exponential per sine mode followed by projection."""
    if t < 0.0:
        raise DomainError(f"semigroup time must be nonnegative, got {t}")
    mu = grid.spectrum().dirichlet_eigenvalues
    coeff = sine_transform(grid, v)
    damped = inverse_sine_transform(grid, coeff * np.exp(-mu * t))
    return leray_project(grid, damped)


def semigroup_velocity_step(grid: Grid, v: np.ndarray, dt: float) -> np.ndarray:
    """One unconditionally stable implicit-Euler diffusion solve, then projection."""
    if dt < 0.0:
        raise DomainError(f"step size must be nonnegative, got {dt}")
    mu = grid.spectrum().dirichlet_eigenvalues
    coeff = sine_transform(grid, v)
    solved = inverse_sine_transform(grid, coeff / (1.0 + mu * dt))
    return leray_project(grid, solved)


# ---------------------------------------------------------------------------
# advection (conservative face-flux form)
# ---------------------------------------------------------------------------

def _flux_divergence(grid: Grid, u_comp: np.ndarray, c: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis of the face flux (face-avg u_comp) * (face-avg c), boundary flux zero."""
    ax = c.ndim - grid.n_dim + axis
    n = c.shape[ax]
    lo = [slice(None)] * c.ndim
    hi = [slice(None)] * c.ndim
    lo[ax] = slice(0, n - 1)
    hi[ax] = slice(1, n)
    flux = 0.25 * (u_comp[tuple(lo)] + u_comp[tuple(hi)]) * (c[tuple(lo)] + c[tuple(hi)])
    zshape = list(c.shape)
    zshape[ax] = 1
    zero = np.zeros(zshape)
    padded = np.concatenate([zero, flux, zero], axis=ax)
    return np.diff(padded, axis=ax) / grid.spacings[axis]


def _transport(grid: Grid, u: np.ndarray, carried: np.ndarray) -> np.ndarray:
    out = _flux_divergence(grid, u[0][None], carried, 0)
    for a in range(1, grid.n_dim):
        out += _flux_divergence(grid, u[a][None], carried, a)
    return out


def b1(grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u . grad) v for discretely solenoidal u, in exactly energy-neutral flux form."""
    return _transport(grid, u, v)


def b2(grid: Grid, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(v . grad) d, same flux form applied to the three director components."""
    return _transport(grid, v, d)


# ---------------------------------------------------------------------------
# Ericksen stress divergence
# ---------------------------------------------------------------------------

def ericksen_divergence(grid: Grid, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Row divergence of the gradient-product tensor T_ij = sum_k di(da_k) dj(db_k).

    Ghost parity tracks the even/odd extension of each tensor entry: entries
    with one normal-derivative factor flip sign across that boundary.
    """
    ga = centered_gradient(grid, da, "neumann")  # (i, k, ...) = di(da_k)
    gb = ga if db is da else centered_gradient(grid, db, "neumann")
    T = np.einsum("ik...,jk...->ij...", ga, gb)
    out = np.zeros(T.shape[1:])
    for i in range(grid.n_dim):
        for j in range(grid.n_dim):
            parity = 1.0 if i == j else -1.0
            out[i] += centered_diff(grid, T[i, j], j, parity)
    return out


def m_term(grid: Grid, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Projected Ericksen forcing, the velocity-equation image of director stress."""
    return leray_project(grid, ericksen_divergence(grid, da, db))


# ---------------------------------------------------------------------------
# polynomial penalty and magnetic coupling
# ---------------------------------------------------------------------------

def f_penalty(d: np.ndarray, eps: float = 1.0) -> np.ndarray:
    """Ball-supported Ginzburg-Landau penalty (|d|^2 - 1) d / eps^2, zero outside |d|<=1."""
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    w = np.sum(d * d, axis=0) - 1.0
    return np.where(w <= 0.0, w, 0.0) * d / eps**2


def g_cross(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d x h, pointwise; always three components.  Each component is
    d_i h_j - d_j h_i, evaluated as np.cross does."""
    out = np.empty(np.broadcast_shapes(d.shape, h.shape))
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(d[i], h[j], out=out[c])
        out[c] -= d[j] * h[i]
    return out


def g2_cross(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(d x h) x h, the squared rotation generator."""
    return g_cross(g_cross(d, h), h)


@dataclass(frozen=True)
class MagneticFieldSpec:
    """Fixed external magnetic/director-coupling field.

    ``sine_bump`` is amplitude * prod_i sin(pi x_i / L_i) along the first
    director component; it vanishes on the boundary and is smooth, so the
    W^{2,4} requirement holds with room to spare.
    """

    profile: str = "sine_bump"
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.profile not in ("zero", "sine_bump"):
            raise ConfigError(f"unknown magnetic profile {self.profile!r}")

    def build(self, grid: Grid) -> np.ndarray:
        field = np.zeros((3, *grid.cells))
        if self.profile == "sine_bump":
            field[0] = self.amplitude * _sine_product(grid, (1,) * grid.n_dim)
        return field


@dataclass(frozen=True)
class NoiseCoefficientSpec:
    """Trace-class velocity forcing: sigma (1 + mu_j)^{-s} on projected sine modes.

    ``decay_exponent`` must exceed 1 or the Hilbert-Schmidt mass
    sigma^2 sum_j (1 + mu_j)^{1-2s} fails to stay summable in the mode limit.
    ``linear_multiplicative`` scales every mode by the clipped gain
    min(|v|_{L^2}, clip), which is 1-Lipschitz and linear near zero.
    """

    kind: str = "additive_trace_class"
    sigma: float = 0.05
    decay_exponent: float = 1.5
    mode_count: int = 16
    clip: float = 1.0

    def __post_init__(self) -> None:
        errors = []
        if self.kind not in ("additive_trace_class", "linear_multiplicative"):
            errors.append(f"unknown noise kind {self.kind!r}")
        if self.decay_exponent <= 1.0:
            errors.append(
                f"decay_exponent must exceed 1 (got {self.decay_exponent}): the "
                "Hilbert-Schmidt mass sigma^2 sum (1+mu_j)^(1-2s) is not summable"
            )
        if self.sigma < 0.0:
            errors.append("sigma must be nonnegative")
        if self.mode_count < 1:
            errors.append("mode_count must be at least 1")
        if self.clip <= 0.0:
            errors.append("clip must be positive")
        if errors:
            raise ConfigError("; ".join(errors))

    def gain(self, v_l2: float) -> float:
        if self.kind == "additive_trace_class":
            return 1.0
        return min(v_l2, self.clip)


def _sine_product(grid: Grid, wav: tuple[int, ...]) -> np.ndarray:
    """prod_a sin(k_a pi x_a / L_a) on the cell centers: the outer product of
    the per-axis factors, multiplied in axis order."""
    out = np.sin(wav[0] * np.pi * grid.axis_centers(0) / grid.lengths[0])
    for a in range(1, grid.n_dim):
        out = out[..., None] * np.sin(wav[a] * np.pi * grid.axis_centers(a) / grid.lengths[a])
    return out


def _mode_table(grid: Grid, count: int) -> list[tuple[float, tuple[int, ...], int]]:
    """First `count` (eigenvalue, wavenumbers, component) triples by eigenvalue.

    Each axis term is the Python scalar (k pi / L)^2, whose libm ``pow`` the
    spectrum's numpy squares do not always match.  The modes are laid out in
    C order over (k_0, ..., comp), so a stable sort by eigenvalue orders ties
    lexicographically by (wavenumbers, component).
    """
    mu = _outer_sum([
        np.array([(k * np.pi / grid.lengths[a]) ** 2 for k in range(1, n + 1)])
        for a, n in enumerate(grid.cells)
    ]).ravel()
    order = np.argsort(np.repeat(mu, grid.n_dim), kind="stable")[:count]
    table = []
    for i in order.tolist():
        cell, comp = divmod(i, grid.n_dim)
        wav = tuple(int(k) + 1 for k in np.unravel_index(cell, grid.cells))
        table.append((float(mu[cell]), wav, comp))
    return table


@lru_cache(maxsize=4)
def _noise_basis(grid: Grid, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected sine eigenfields scaled to graph-V norm sqrt(1 + mu_j)."""
    modes = _mode_table(grid, count)
    table = grid.spectrum().dirichlet_eigenvalues
    fields = np.empty((len(modes), grid.n_dim, *grid.cells))
    for i, (mu, wav, comp) in enumerate(modes):
        vec = np.zeros((grid.n_dim, *grid.cells))
        vec[comp] = _sine_product(grid, wav)
        proj = leray_project(grid, vec)
        coeff = sine_transform(grid, proj)
        graph_sq = float(np.sum((1.0 + table) * coeff * coeff) * grid.cell_volume)
        np.multiply(proj, np.sqrt((1.0 + mu) / graph_sq), out=fields[i])
    return fields, np.array([mu for mu, _, _ in modes])


# ---------------------------------------------------------------------------
# bundled operator data for time stepping
# ---------------------------------------------------------------------------

class OperatorCache:
    """Precomputed tables shared by every step of a run."""

    def __init__(
        self,
        grid: Grid,
        noise: NoiseCoefficientSpec,
        magnetic: MagneticFieldSpec,
        eps: float = 1.0,
    ) -> None:
        self.grid = grid
        self.noise = noise
        self.eps = float(eps)
        self.h_field = magnetic.build(grid)
        self.noise_fields, mus = _noise_basis(grid, noise.mode_count)
        self.noise_weights = noise.sigma * (1.0 + mus) ** (-noise.decay_exponent)


def velocity_noise_increment(
    cache: OperatorCache, v: np.ndarray, dw1: np.ndarray
) -> np.ndarray:
    """S(v) dW_1 summed over modes: gain(v) * sum_j w_j psi_j dW_1^j."""
    gain = cache.noise.gain(
        float(np.sqrt(np.sum(v * v) * cache.grid.cell_volume))
    )
    scaled = cache.noise_weights * dw1
    return gain * np.tensordot(scaled, cache.noise_fields, axes=(0, 0))


def director_noise_increment(cache: OperatorCache, d: np.ndarray, dw2: float) -> np.ndarray:
    """(d x h) dW_2."""
    return g_cross(d, cache.h_field) * dw2


def assemble_L(cache: OperatorCache, d: np.ndarray) -> np.ndarray:
    """Director part of L(y) = -1/2 G^2(d); the velocity part is zero."""
    return -0.5 * g2_cross(d, cache.h_field)


def drift(
    grid: Grid,
    v: np.ndarray,
    d: np.ndarray,
    eps: float,
    cache: OperatorCache | None = None,
    *,
    velocity: bool = True,
    transport: bool = True,
    penalty: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """The drift (-F - L)(y) shared by every scheme, term by term.

    F(y) = (Pi[b1(v,v) + div(grad d tensor grad d)]; b2(v,d) + f(d)) and
    L(y) = (0; -1/2 G^2(d)).  ``cache`` supplies the magnetic field of the
    Ito correction -L; without it the result is -F alone.  The toggles drop
    the velocity drift (returned as None), the director transport and the
    penalty.
    """
    dv = None
    if velocity:
        dv = -leray_project(grid, b1(grid, v, v) + ericksen_divergence(grid, d, d))
    # +1/2 G^2(d), the Stratonovich-to-Ito correction, comes first
    dd = -assemble_L(cache, d) if cache is not None else np.zeros_like(d)
    if transport:
        dd = dd - b2(grid, v, d)
    if penalty:
        dd = dd - f_penalty(d, eps)
    return dv, dd
