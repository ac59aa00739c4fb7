"""Field containers, discrete norms, and binary snapshot I/O.

Conventions: a scalar field is an ndarray shaped like ``grid.cells``; vector
and director fields carry a leading component axis (n_dim components for
velocity, always 3 for the director, even in 2D).  All integral norms use the
cell-sum quadrature ``sum(.) * grid.cell_volume``, under which the
orthonormal transforms satisfy Parseval exactly.

Sobolev-type norms are realized spectrally: coefficients in the eigenbasis
matching the field's boundary flavor, weighted by polynomial multipliers in
the continuum eigenvalues.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .grid import Grid, cosine_transform, sine_transform

__all__ = [
    "State",
    "l2_norm",
    "l4_norm",
    "linf_norm",
    "h_norm",
    "stokes_half_norm",
    "stokes_norm",
    "director_laplacian_norm",
    "director_x1_norm",
    "grad_seminorm",
    "v_norm",
    "e_norm",
    "spectral_summary",
    "write_snapshot",
    "read_snapshot",
    "SnapshotMeta",
]

SNAPSHOT_MAGIC = b"SLCF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sII3I3dId")


@dataclass(frozen=True)
class State:
    """Coupled velocity/director state at one instant."""

    grid: Grid
    v: np.ndarray  # (n_dim, *cells), no-slip
    d: np.ndarray  # (3, *cells), zero normal derivative
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.v.shape != (self.grid.n_dim, *self.grid.cells):
            raise ValueError(f"velocity shape {self.v.shape} invalid")
        if self.d.shape != (3, *self.grid.cells):
            raise ValueError(f"director shape {self.d.shape} invalid")


# ---------------------------------------------------------------------------
# pointwise-magnitude norms
# ---------------------------------------------------------------------------

def _magnitude_sq(arr: np.ndarray, grid: Grid) -> np.ndarray:
    if arr.ndim == grid.n_dim:
        return arr * arr
    return np.sum(arr * arr, axis=0)


def l2_norm(grid: Grid, arr: np.ndarray) -> float:
    return float(np.sqrt(np.sum(_magnitude_sq(arr, grid)) * grid.cell_volume))


def l4_norm(grid: Grid, arr: np.ndarray) -> float:
    m2 = _magnitude_sq(arr, grid)
    return float((np.sum(m2 * m2) * grid.cell_volume) ** 0.25)


def linf_norm(grid: Grid, arr: np.ndarray) -> float:
    return float(np.sqrt(np.max(_magnitude_sq(arr, grid))))


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------

def _coeff_sq(grid: Grid, arr: np.ndarray, bc_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(squared transform coefficients summed over components, eigenvalue table)."""
    spec = grid.spectrum()
    if bc_kind == "neumann":
        coeff = cosine_transform(grid, arr)
        lam = spec.neumann_eigenvalues
    elif bc_kind == "dirichlet":
        coeff = sine_transform(grid, arr)
        lam = spec.dirichlet_eigenvalues
    else:
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    sq = coeff * coeff
    if arr.ndim > grid.n_dim:
        sq = np.sum(sq, axis=tuple(range(arr.ndim - grid.n_dim)))
    return sq, lam

def h_norm(grid: Grid, arr: np.ndarray, order: int, bc_kind: str) -> float:
    """Sobolev norm of order k: multiplier 1 + lambda + ... + lambda^k."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    sq, lam = _coeff_sq(grid, arr, bc_kind)
    mult = np.zeros_like(lam)
    for m in range(order + 1):
        mult += lam**m
    return float(np.sqrt(np.sum(mult * sq) * grid.cell_volume))


def _weighted(grid: Grid, arr: np.ndarray, bc_kind: str, weight) -> float:
    sq, lam = _coeff_sq(grid, arr, bc_kind)
    return float(np.sqrt(np.sum(weight(lam) * sq) * grid.cell_volume))


def stokes_half_norm(grid: Grid, v: np.ndarray) -> float:
    """Enstrophy-type norm |A^{1/2} v| via sine multipliers."""
    return _weighted(grid, v, "dirichlet", lambda mu: mu)


def stokes_norm(grid: Grid, v: np.ndarray) -> float:
    """|A v| via squared sine multipliers."""
    return _weighted(grid, v, "dirichlet", lambda mu: mu * mu)


def director_laplacian_norm(grid: Grid, d: np.ndarray) -> float:
    """|Delta d| via cosine multipliers."""
    return _weighted(grid, d, "neumann", lambda lam: lam * lam)


def director_x1_norm(grid: Grid, d: np.ndarray) -> float:
    """|(I + A)^{3/2} d|: the top regularity norm of the director scale."""
    return _weighted(grid, d, "neumann", lambda lam: (1.0 + lam) ** 3)


def grad_seminorm(grid: Grid, arr: np.ndarray, bc_kind: str) -> float:
    """|grad u| realized as the lambda-weighted coefficient norm."""
    return _weighted(grid, arr, bc_kind, lambda lam: lam)


def v_norm(state: State) -> float:
    """Norm of the working space: |A^{1/2} v|^2 + |d|_{H^2}^2, square-rooted."""
    return spectral_summary(state)["v_norm"]


def e_norm(state: State) -> float:
    """Norm of the regularity space: |A v|^2 + |(I+A)^{3/2} d|^2, square-rooted."""
    return spectral_summary(state)["e_norm"]


def spectral_summary(state: State) -> dict[str, float]:
    """Every per-step scalar derived from one sine and one cosine transform.

    Returns l2_v, l2_d, a_half_v, a_v, h2_d, lap_d, x1_d, grad_d, v_norm,
    e_norm, and the blow-up functional |A^{1/2} v| + |Delta d|.
    """
    grid = state.grid
    spec = grid.spectrum()
    vol = grid.cell_volume
    vc = sine_transform(grid, state.v)
    dc = cosine_transform(grid, state.d)
    v_sq = np.sum(vc * vc, axis=0)
    d_sq = np.sum(dc * dc, axis=0)
    mu = spec.dirichlet_eigenvalues
    lam = spec.neumann_eigenvalues
    l2_v = float(np.sqrt(np.sum(v_sq) * vol))
    l2_d = float(np.sqrt(np.sum(d_sq) * vol))
    a_half = float(np.sqrt(np.sum(mu * v_sq) * vol))
    a_full = float(np.sqrt(np.sum(mu * mu * v_sq) * vol))
    h2_d = float(np.sqrt(np.sum((1.0 + lam + lam * lam) * d_sq) * vol))
    lap_d = float(np.sqrt(np.sum(lam * lam * d_sq) * vol))
    x1_d = float(np.sqrt(np.sum((1.0 + lam) ** 3 * d_sq) * vol))
    grad_d = float(np.sqrt(np.sum(lam * d_sq) * vol))
    vn = float(np.sqrt(a_half**2 + h2_d**2))
    en = float(np.sqrt(a_full**2 + x1_d**2))
    return {
        "l2_v": l2_v,
        "l2_d": l2_d,
        "a_half_v": a_half,
        "a_v": a_full,
        "h2_d": h2_d,
        "lap_d": lap_d,
        "x1_d": x1_d,
        "grad_d": grad_d,
        "v_norm": vn,
        "e_norm": en,
        "blowup": a_half + lap_d,
    }


# ---------------------------------------------------------------------------
# binary snapshots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotMeta:
    version: int
    n_dim: int
    cells: tuple[int, ...]
    lengths: tuple[float, ...]
    n_components: int
    time: float


def write_snapshot(path, grid: Grid, field: np.ndarray, time: float) -> None:
    """Write one field (scalar or multi-component) in the SLCF layout.

    Header: magic, version u32, n_dim u32, counts u32 x 3, lengths f64 x 3,
    n_components u32, time f64; payload: per component a little-endian f64
    block with the x index varying fastest.
    """
    comps = field[None] if field.ndim == grid.n_dim else field
    counts = list(grid.cells) + [1] * (3 - grid.n_dim)
    lengths = list(grid.lengths) + [0.0] * (3 - grid.n_dim)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        grid.n_dim,
        *counts,
        *lengths,
        comps.shape[0],
        float(time),
    )
    with open(path, "wb") as f:
        f.write(header)
        for c in range(comps.shape[0]):
            f.write(np.asarray(comps[c], dtype="<f8").flatten(order="F").tobytes())


def read_snapshot(path) -> tuple[SnapshotMeta, np.ndarray]:
    """Read one SLCF file; ValueError for anything but a well-formed one."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot header needs {_HEADER.size} bytes, file has {len(raw)}")
    magic, version, n_dim, c0, c1, c2, l0, l1, l2, n_comp, time = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if n_dim not in (2, 3) or n_comp < 1:
        raise ValueError(f"bad snapshot shape: n_dim {n_dim}, {n_comp} components")
    cells = tuple((c0, c1, c2)[:n_dim])
    lengths = tuple((l0, l1, l2)[:n_dim])
    payload = n_comp * math.prod(cells) * 8
    if len(raw) != _HEADER.size + payload:
        raise ValueError(
            f"snapshot payload is {len(raw) - _HEADER.size} bytes, expected {payload}"
        )
    meta = SnapshotMeta(version, n_dim, cells, lengths, n_comp, time)
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    comps = [block.reshape(cells, order="F") for block in np.split(data, n_comp)]
    field = np.stack(comps) if n_comp > 1 else comps[0]
    return meta, field
