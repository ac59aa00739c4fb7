"""Rectangular cell-centered grids, trigonometric transforms, and difference operators.

The domain is an open box (0, L_1) x ... x (0, L_n) discretized by cell
centers x_j = (j + 1/2) h.  Scalar fields come in two boundary flavors:

* ``neumann``  -- zero normal derivative, even (reflecting) ghost cells,
  diagonalized by the type-II cosine transform;
* ``dirichlet`` -- zero boundary value, odd (antireflecting) ghost cells,
  diagonalized by the type-II sine transform.

The difference operators form one centered family.  ``centered_gradient``
and ``divergence`` (antireflecting ghosts) are a mutually adjoint
conservative pair: every divergence sums to exactly zero, and their
composition acts on cosine modes as ``-projection_symbol``, which is what
the pressure projection inverts.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

__all__ = [
    "Grid",
    "Spectrum",
    "build_grid",
    "cosine_transform",
    "inverse_cosine_transform",
    "sine_transform",
    "inverse_sine_transform",
    "centered_gradient",
    "divergence",
]

_PARITY = {"neumann": 1.0, "dirichlet": -1.0}


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue tables of the grid Laplacians, indexed by wavenumber multi-index.

    ``neumann_eigenvalues`` and ``dirichlet_eigenvalues`` are the continuum
    eigenvalues sum_i (k_i pi / L_i)^2 (cosine modes count from k=0, sine
    modes from k=1).  ``projection_symbol`` is the symbol of
    centered-divergence o centered-gradient (the wide Laplacian) used by the
    pressure solve.  The tables are read-only.
    """

    neumann_eigenvalues: np.ndarray
    dirichlet_eigenvalues: np.ndarray
    projection_symbol: np.ndarray


@dataclass(frozen=True)
class Grid:
    """Cell-centered box grid.

    Parameters
    ----------
    n_dim : int
        Spatial dimension, 2 or 3.
    cells : tuple of int
        Cells per axis; each must be a power of two >= 4.
    lengths : tuple of float
        Box edge lengths, all positive and finite.
    """

    n_dim: int
    cells: tuple[int, ...]
    lengths: tuple[float, ...]
    spacings: tuple[float, ...] = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n_dim not in (2, 3):
            raise ValueError(f"n_dim must be 2 or 3, got {self.n_dim}")
        if len(self.cells) != self.n_dim or len(self.lengths) != self.n_dim:
            raise ValueError("cells and lengths must have n_dim entries")
        for n in self.cells:
            if n < 4 or (n & (n - 1)) != 0:
                raise ValueError(f"cells must be powers of two >= 4, got {n}")
        for length in self.lengths:
            if not 0.0 < length < math.inf:
                raise ValueError(f"lengths must be positive and finite, got {length}")
        object.__setattr__(
            self, "spacings", tuple(L / n for L, n in zip(self.lengths, self.cells))
        )
        object.__setattr__(self, "cell_volume", float(np.prod(self.spacings)))

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacings[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, shaped like a scalar field."""
        axes = [self.axis_centers(a) for a in range(self.n_dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def spectrum(self) -> Spectrum:
        """The grid's eigenvalue tables, built once per grid and shared."""
        return _spectrum(self)


def build_grid(
    n_dim: int, cells: tuple[int, ...], lengths: tuple[float, ...]
) -> Grid:
    """Validate and construct a Grid."""
    return Grid(n_dim=n_dim, cells=tuple(cells), lengths=tuple(lengths))


@lru_cache(maxsize=16)
def _spectrum(grid: Grid) -> Spectrum:
    neu, diri, proj = [], [], []
    for a in range(grid.n_dim):
        n, L, h = grid.cells[a], grid.lengths[a], grid.spacings[a]
        k_neu = np.arange(n)
        k_dir = np.arange(n) + 1
        neu.append((k_neu * np.pi / L) ** 2)
        diri.append((k_dir * np.pi / L) ** 2)
        proj.append((np.sin(k_neu * np.pi / n) / h) ** 2)
    return Spectrum(
        neumann_eigenvalues=_outer_sum(neu),
        dirichlet_eigenvalues=_outer_sum(diri),
        projection_symbol=_outer_sum(proj),
    )


def _outer_sum(per_axis: list[np.ndarray]) -> np.ndarray:
    total = per_axis[0]
    for arr in per_axis[1:]:
        total = total[..., None] + arr
    total.setflags(write=False)
    return total


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _spatial_axes(grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
    if arr.ndim < grid.n_dim or arr.shape[-grid.n_dim :] != grid.cells:
        raise ValueError(
            f"field trailing shape {arr.shape} does not match grid cells {grid.cells}"
        )
    return tuple(range(arr.ndim - grid.n_dim, arr.ndim))


def _r2r_kernels(scipy_dir: Path | None) -> tuple:
    """The orthonormal DCT-II and DST-II and their inverses, each as ``f(arr, axes)``.

    They call the compiled pocketfft module that SciPy ships, loaded from its
    file under ``scipy_dir`` so that SciPy itself is never imported, with the
    arguments ``scipy.fft.dctn`` & co. pass it for ``type=2, norm="ortho"``:
    type 2 forward and type 3 inverse, ``inorm`` 1, a new output array and
    one thread.  That gives SciPy's bytes without its per-call wrapper cost.
    This signature has been checked against SciPy 1.17.1 only.  If the module
    cannot be loaded, the kernels are the public ``scipy.fft`` functions.
    """
    suffixes = importlib.machinery.EXTENSION_SUFFIXES if scipy_dir is not None else []
    for path in (scipy_dir / "fft" / "_pocketfft" / f"pypocketfft{s}" for s in suffixes):
        if not path.is_file():
            continue
        loader = importlib.machinery.ExtensionFileLoader("pypocketfft", str(path))
        try:
            spec = importlib.util.spec_from_loader(loader.name, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            dct, dst = module.dct, module.dst
        except (ImportError, OSError, AttributeError):
            break
        return (
            lambda arr, axes: dct(arr, 2, axes, 1, None, 1),
            lambda arr, axes: dct(arr, 3, axes, 1, None, 1),
            lambda arr, axes: dst(arr, 2, axes, 1, None, 1),
            lambda arr, axes: dst(arr, 3, axes, 1, None, 1),
        )
    import scipy.fft

    return tuple(
        partial(f, type=2, norm="ortho")
        for f in (scipy.fft.dctn, scipy.fft.idctn, scipy.fft.dstn, scipy.fft.idstn)
    )


_SCIPY = importlib.util.find_spec("scipy")
_DCTN, _IDCTN, _DSTN, _IDSTN = _r2r_kernels(
    Path(_SCIPY.submodule_search_locations[0]) if _SCIPY else None
)


def cosine_transform(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Coefficients of ``arr`` in the orthonormal cosine (Neumann) eigenbasis."""
    return _DCTN(arr, axes=_spatial_axes(grid, arr))


def inverse_cosine_transform(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    return _IDCTN(coeff, axes=_spatial_axes(grid, coeff))


def sine_transform(grid: Grid, arr: np.ndarray) -> np.ndarray:
    """Coefficients of ``arr`` in the orthonormal sine (Dirichlet) eigenbasis."""
    return _DSTN(arr, axes=_spatial_axes(grid, arr))


def inverse_sine_transform(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    return _IDSTN(coeff, axes=_spatial_axes(grid, coeff))


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def centered_diff(grid: Grid, arr: np.ndarray, axis: int, parity: float) -> np.ndarray:
    """(u[j+1]-u[j-1])/2h with parity ghosts on both ends."""
    ax = arr.ndim - grid.n_dim + axis
    out = np.empty(arr.shape)
    # views with the difference axis first; each ghost is parity * its edge cell
    u, du = arr.swapaxes(ax, 0), out.swapaxes(ax, 0)
    np.subtract(u[2:], u[:-2], out=du[1:-1])
    np.subtract(u[1], parity * u[0], out=du[0])
    np.subtract(parity * u[-1], u[-2], out=du[-1])
    out /= 2.0 * grid.spacings[axis]
    return out


def centered_gradient(grid: Grid, u: np.ndarray, bc_kind: str) -> np.ndarray:
    """Cell-centered gradient (the exact negative adjoint of the dirichlet divergence)."""
    parity = _PARITY[bc_kind]
    return np.stack([centered_diff(grid, u, a, parity) for a in range(grid.n_dim)])


def divergence(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Conservative centered divergence of a vector field with antireflection ghosts.

    The result sums to exactly zero for every input, which keeps the singular
    pressure Poisson problem solvable.
    """
    if F.shape[0] != grid.n_dim:
        raise ValueError(f"expected {grid.n_dim} components, got {F.shape[0]}")
    out = np.zeros(F.shape[1:])
    for a in range(grid.n_dim):
        out += centered_diff(grid, F[a], a, _PARITY["dirichlet"])
    return out
