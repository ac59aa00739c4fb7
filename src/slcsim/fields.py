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
from functools import cached_property

import numpy as np

from .grid import Grid, Spectrum, cosine_transform, sine_transform

__all__ = [
    "State",
    "l2_norm",
    "l4_norm",
    "linf_norm",
    "h_norm",
    "grad_seminorm",
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
    """Coupled velocity/director state at one instant.

    ``summary`` is the state's :func:`spectral_summary`, computed on first
    use and kept, so the arrays must not be changed in place after it is read.
    """

    grid: Grid
    v: np.ndarray  # (n_dim, *cells), no-slip
    d: np.ndarray  # (3, *cells), zero normal derivative
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.v.shape != (self.grid.n_dim, *self.grid.cells):
            raise ValueError(f"velocity shape {self.v.shape} invalid")
        if self.d.shape != (3, *self.grid.cells):
            raise ValueError(f"director shape {self.d.shape} invalid")

    @cached_property
    def summary(self) -> dict[str, float]:
        return spectral_summary(self)


# ---------------------------------------------------------------------------
# the per-item quadrature
# ---------------------------------------------------------------------------
#
# A batch stacks vector fields along item axes after the component axis,
# (component, *items, *cells); a scalar field (*cells) is never batched.  The
# kernels below take any number of item axes, none included: a single-field
# norm is the kernel read on no item axis, and each item of a batch gets the
# bytes of that item alone.

def _item_norms(grid: Grid, sq: np.ndarray) -> np.ndarray:
    """sqrt(sum(sq) * cell_volume) of each item of squared magnitudes
    (*items, *cells): one sum over the cells per item."""
    cells = tuple(range(sq.ndim - grid.n_dim, sq.ndim))
    return np.sqrt(np.add.reduce(sq, axis=cells) * grid.cell_volume)


# ---------------------------------------------------------------------------
# pointwise-magnitude norms
# ---------------------------------------------------------------------------

def _magnitude_sq(arr: np.ndarray, grid: Grid) -> np.ndarray:
    if arr.ndim == grid.n_dim:
        return arr * arr
    return np.sum(arr * arr, axis=0)


def _l2_norms(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """``l2_norm`` of each item of a batch."""
    return _item_norms(grid, _magnitude_sq(arr, grid))


def l2_norm(grid: Grid, arr: np.ndarray) -> float:
    return float(_l2_norms(grid, arr))


def l4_norm(grid: Grid, arr: np.ndarray) -> float:
    m2 = _magnitude_sq(arr, grid)
    return float((np.sum(m2 * m2) * grid.cell_volume) ** 0.25)


def linf_norm(grid: Grid, arr: np.ndarray) -> float:
    return float(np.sqrt(np.max(_magnitude_sq(arr, grid))))


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------

def _coeff_sq(
    grid: Grid, spec: Spectrum, arr: np.ndarray, bc_kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """(squared transform coefficients summed over the component axis, if
    any, eigenvalue table), the eigenvalues read from ``spec``, the grid's
    spectrum, which a caller reading both tables fetches once."""
    if bc_kind == "neumann":
        coeff = cosine_transform(grid, arr)
        lam = spec.neumann_eigenvalues
    elif bc_kind == "dirichlet":
        coeff = sine_transform(grid, arr)
        lam = spec.dirichlet_eigenvalues
    else:
        raise ValueError(f"unknown bc_kind {bc_kind!r}")
    return _magnitude_sq(coeff, grid), lam


def _h_norms(grid: Grid, arr: np.ndarray, order: int, bc_kind: str) -> np.ndarray:
    """``h_norm`` of each item of a batch."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    sq, lam = _coeff_sq(grid, grid.spectrum(), arr, bc_kind)
    mult = np.zeros_like(lam)
    for m in range(order + 1):
        mult += lam**m
    return _item_norms(grid, mult * sq)


def h_norm(grid: Grid, arr: np.ndarray, order: int, bc_kind: str) -> float:
    """Sobolev norm of order k: multiplier 1 + lambda + ... + lambda^k."""
    return float(_h_norms(grid, arr, order, bc_kind))


def grad_seminorm(grid: Grid, arr: np.ndarray, bc_kind: str) -> float:
    """|grad u| realized as the lambda-weighted coefficient norm."""
    sq, lam = _coeff_sq(grid, grid.spectrum(), arr, bc_kind)
    return float(_item_norms(grid, lam * sq))


# the entries of a summary that are norms read off the coefficients, in order
_NORM_KEYS = ("l2_v", "l2_d", "a_half_v", "a_v", "h2_d", "lap_d", "x1_d", "grad_d")


def _summaries(grid: Grid, v: np.ndarray, d: np.ndarray) -> list[dict[str, float]]:
    """``spectral_summary`` of each item of a batched state, v (n_dim, *items,
    *cells) and d (3, *items, *cells), in the items' C order: one summary
    for a single state."""
    spec = grid.spectrum()
    v_sq, mu = _coeff_sq(grid, spec, v, "dirichlet")
    d_sq, lam = _coeff_sq(grid, spec, d, "neumann")
    # one weighted product alive at a time, its norms kept per item
    norms = np.array([
        _item_norms(grid, v_sq),
        _item_norms(grid, d_sq),
        _item_norms(grid, mu * v_sq),
        _item_norms(grid, mu * mu * v_sq),
        _item_norms(grid, (1.0 + lam + lam * lam) * d_sq),
        _item_norms(grid, lam * lam * d_sq),
        _item_norms(grid, (1.0 + lam) ** 3 * d_sq),
        _item_norms(grid, lam * d_sq),
    ])
    rows = norms.reshape(len(_NORM_KEYS), -1).T.tolist()
    summaries = [dict(zip(_NORM_KEYS, row)) for row in rows]
    for s in summaries:
        s["v_norm"] = math.sqrt(s["a_half_v"] ** 2 + s["h2_d"] ** 2)
        s["e_norm"] = math.sqrt(s["a_v"] ** 2 + s["x1_d"] ** 2)
        s["blowup"] = s["a_half_v"] + s["lap_d"]
    return summaries


def spectral_summary(state: State) -> dict[str, float]:
    """Every per-step scalar derived from one sine and one cosine transform.

    Returns l2_v, l2_d, a_half_v, a_v, h2_d, lap_d, x1_d, grad_d, the norm
    v_norm of the working space V (|A^{1/2} v|^2 + |d|_{H^2}^2, square-rooted),
    the norm e_norm of the regularity space E (|A v|^2 + |(I+A)^{3/2} d|^2,
    square-rooted), and the blow-up functional |A^{1/2} v| + |Delta d|.
    """
    [summary] = _summaries(state.grid, state.v, state.d)
    return summary


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
    try:
        Grid(n_dim, cells, lengths)
    except ValueError as exc:
        raise ValueError(f"bad snapshot grid: {exc}") from exc
    if not math.isfinite(time):
        raise ValueError(f"snapshot time must be finite, got {time}")
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
