"""Transform, stencil, and spectrum checks for the grid layer.

The transforms are cross-checked against direct O(N^2) summation, and the
projection symbol against a dense-matrix eigendecomposition of the centered
stencils, so a regression in the fast paths cannot hide behind its own
inverse.
"""

import numpy as np
import pytest

from slcsim.grid import (
    Grid,
    build_grid,
    cosine_transform,
    inverse_cosine_transform,
    sine_transform,
    inverse_sine_transform,
    centered_gradient,
    divergence,
)


# ---------------------------------------------------------------------------
# construction and geometry
# ---------------------------------------------------------------------------

def test_cell_centers_and_volume():
    g = build_grid(2, (8, 4), (2.0, 1.0))
    assert g.spacings == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625, abs=0.0)
    np.testing.assert_allclose(g.axis_centers(0), (np.arange(8) + 0.5) * 0.25)
    x, y = g.meshgrid()
    assert x.shape == (8, 4)
    assert x[3, 0] == pytest.approx(0.875)
    assert y[0, 3] == pytest.approx(0.875)


@pytest.mark.parametrize(
    "n_dim,cells,lengths",
    [
        (1, (8,), (1.0,)),
        (4, (4, 4, 4, 4), (1.0, 1.0, 1.0, 1.0)),
        (2, (8, 6), (1.0, 1.0)),     # 6 is not a power of two
        (2, (8, 2), (1.0, 1.0)),     # too few cells
        (2, (8, 8), (1.0, -1.0)),    # negative edge
        (2, (8,), (1.0, 1.0)),       # rank mismatch
    ],
)
def test_invalid_grids_rejected(n_dim, cells, lengths):
    with pytest.raises(ValueError):
        build_grid(n_dim, cells, lengths)


def test_grid_is_frozen():
    g = build_grid(2, (4, 4), (1.0, 1.0))
    with pytest.raises(Exception):
        g.n_dim = 3


# ---------------------------------------------------------------------------
# spectrum tables
# ---------------------------------------------------------------------------

def test_continuum_eigenvalues_on_pi_box():
    # (k pi / L)^2 with L = pi collapses to k^2: first nonzero Neumann value 1.
    g = build_grid(2, (4, 4), (np.pi, np.pi))
    lam = g.spectrum().neumann_eigenvalues
    assert lam[0, 0] == 0.0
    assert sorted(np.unique(lam))[1] == pytest.approx(1.0, abs=1e-14)
    mu = g.spectrum().dirichlet_eigenvalues
    assert mu[0, 0] == pytest.approx(2.0, abs=1e-14)  # (1,1) sine mode


def test_spectrum_is_built_once_per_grid_and_read_only():
    g = build_grid(2, (8, 4), (1.0, 1.0))
    spec = g.spectrum()
    assert g.spectrum() is spec
    assert build_grid(2, (8, 4), (1.0, 1.0)).spectrum() is spec  # equal grids share it
    for table in (spec.neumann_eigenvalues, spec.dirichlet_eigenvalues,
                  spec.projection_symbol):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError):
            table *= 2.0


def test_compact_symbol_formula():
    g = build_grid(2, (8, 4), (1.0, 1.0))
    spec = g.spectrum()
    h0 = g.spacings[0]
    k = np.arange(8)
    np.testing.assert_allclose(
        spec.projection_symbol[:, 0], (np.sin(k * np.pi / 8) / h0) ** 2,
        rtol=0.0, atol=1e-12,
    )


def _dense_centered_diff_1d(n: int, h: float, parity: float) -> np.ndarray:
    """(u[j+1] - u[j-1]) / 2h as a matrix, with parity ghosts at both ends."""
    mat = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            mat[i, i + 1] = 1.0
        if i > 0:
            mat[i, i - 1] = -1.0
    mat[0, 0] -= parity
    mat[-1, -1] += parity
    return mat / (2.0 * h)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_compact_symbols_match_matrix_eigenvalues(bc):
    """The projection symbol is the exact spectrum of -D_{-p} D_p, the centered
    gradient with ghost parity p followed by its negative adjoint.  For
    ``neumann`` this is the wide Laplacian pressure_of inverts; for
    ``dirichlet`` it is the Gram matrix of the velocity gradient, the same
    product in the other order, so it shares the spectrum."""
    g = build_grid(2, (8, 4), (1.0, 1.0))
    h = g.spacings[0]
    parity = 1.0 if bc == "neumann" else -1.0
    wide = _dense_centered_diff_1d(8, h, -parity) @ _dense_centered_diff_1d(8, h, parity)
    eigs = np.sort(-np.linalg.eigvalsh(wide))  # symmetric: the stencils are adjoint
    axis_line = g.spectrum().projection_symbol[:, 0]  # axis-1 ground term is zero
    np.testing.assert_allclose(np.sort(axis_line), eigs, rtol=1e-12, atol=1e-10)


# ---------------------------------------------------------------------------
# transforms vs direct summation
# ---------------------------------------------------------------------------

def _dct2_matrix(n: int) -> np.ndarray:
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return scale[:, None] * np.cos(np.pi * (2 * j + 1) * k / (2 * n))


def _dst2_matrix(n: int) -> np.ndarray:
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[-1] = np.sqrt(1.0 / n)
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return scale[:, None] * np.sin(np.pi * (2 * j + 1) * (k + 1) / (2 * n))


def test_cosine_transform_matches_direct_sum():
    rng = np.random.default_rng(7)
    g = build_grid(2, (8, 16), (1.0, 2.0))
    u = rng.standard_normal(g.cells)
    direct = _dct2_matrix(8) @ u @ _dct2_matrix(16).T
    np.testing.assert_allclose(cosine_transform(g, u), direct, atol=1e-12)


def test_sine_transform_matches_direct_sum():
    rng = np.random.default_rng(8)
    g = build_grid(2, (8, 16), (1.0, 2.0))
    u = rng.standard_normal(g.cells)
    direct = _dst2_matrix(8) @ u @ _dst2_matrix(16).T
    np.testing.assert_allclose(sine_transform(g, u), direct, atol=1e-12)


@pytest.mark.parametrize(
    "n_dim,cells,lengths",
    [(2, (16, 8), (1.0, 0.5)), (3, (8, 4, 4), (1.0, 1.0, 2.0))],
)
def test_round_trips(n_dim, cells, lengths):
    rng = np.random.default_rng(11)
    g = build_grid(n_dim, cells, lengths)
    u = rng.standard_normal((3, *cells))  # multi-component exercises axis logic
    for fwd, inv in (
        (cosine_transform, inverse_cosine_transform),
        (sine_transform, inverse_sine_transform),
    ):
        back = inv(g, fwd(g, u))
        assert np.max(np.abs(back - u)) <= 1e-12


def test_transforms_preserve_sum_of_squares():
    rng = np.random.default_rng(12)
    g = build_grid(2, (16, 16), (1.0, 1.0))
    u = rng.standard_normal(g.cells)
    for fwd in (cosine_transform, sine_transform):
        c = fwd(g, u)
        assert np.sum(c * c) == pytest.approx(np.sum(u * u), rel=1e-13)


def test_transform_shape_mismatch_rejected():
    g = build_grid(2, (8, 8), (1.0, 1.0))
    with pytest.raises(ValueError):
        cosine_transform(g, np.zeros((8, 4)))


# ---------------------------------------------------------------------------
# difference stencils
# ---------------------------------------------------------------------------

def _wide_laplacian(g, u):
    return divergence(g, centered_gradient(g, u, "neumann"), "dirichlet")


def test_sampled_cosine_is_compact_neumann_eigenvector():
    # the identity pressure_of relies on: centered div o grad (the wide
    # Laplacian) acts on a sampled cosine mode as -projection_symbol
    g = build_grid(2, (16, 16), (1.0, 1.0))
    x, _ = g.meshgrid()
    for k in (1, 3, 7):
        u = np.cos(k * np.pi * x / g.lengths[0])
        sym = g.spectrum().projection_symbol[k, 0]
        resid = _wide_laplacian(g, u) + sym * u
        assert np.max(np.abs(resid)) <= 1e-10 * sym


def test_divergence_of_gradient_is_laplacian():
    # exact for every field: div o grad is -projection_symbol per cosine mode
    rng = np.random.default_rng(21)
    g = build_grid(2, (16, 8), (1.0, 1.0))
    sym = g.spectrum().projection_symbol
    for _ in range(5):
        u = rng.standard_normal(g.cells)
        composed = _wide_laplacian(g, u)
        direct = inverse_cosine_transform(g, -sym * cosine_transform(g, u))
        assert np.max(np.abs(composed - direct)) <= 1e-11 * np.max(np.abs(direct))


def test_centered_gradient_adjoint_to_dirichlet_divergence():
    """<grad_c p, F> = -<p, div_c F>: the summation-by-parts pairing."""
    rng = np.random.default_rng(22)
    g = build_grid(2, (16, 16), (1.0, 1.0))
    for _ in range(5):
        p = rng.standard_normal(g.cells)
        F = rng.standard_normal((2, *g.cells))
        lhs = np.sum(centered_gradient(g, p, "neumann") * F) * g.cell_volume
        rhs = -np.sum(p * divergence(g, F, "dirichlet")) * g.cell_volume
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_dirichlet_divergence_is_mean_free():
    # antireflection ghosts make the centered divergence integrate to zero
    rng = np.random.default_rng(23)
    g = build_grid(2, (16, 8), (1.0, 2.0))
    F = rng.standard_normal((2, *g.cells))
    assert abs(np.sum(divergence(g, F, "dirichlet")) * g.cell_volume) <= 1e-12


def test_divergence_rejects_other_boundary_kinds():
    g = build_grid(2, (8, 8), (1.0, 1.0))
    with pytest.raises(ValueError):
        divergence(g, np.zeros((2, *g.cells)), "neumann")


def test_gradient_of_linear_field_interior():
    g = build_grid(2, (32, 32), (1.0, 1.0))
    x, y = g.meshgrid()
    u = 2.0 * x + 3.0 * y
    gx = centered_gradient(g, u, "neumann")
    # centered differences are exact for linear data away from the walls
    assert np.max(np.abs(gx[0][1:-1, :] - 2.0)) <= 1e-12
    assert np.max(np.abs(gx[1][:, 1:-1] - 3.0)) <= 1e-12


def test_laplacian_3d_smoke():
    g = build_grid(3, (8, 4, 4), (1.0, 1.0, 1.0))
    x = g.meshgrid()[0]
    u = np.cos(np.pi * x / g.lengths[0])
    sym = g.spectrum().projection_symbol[1, 0, 0]
    resid = _wide_laplacian(g, u) + sym * u
    assert np.max(np.abs(resid)) <= 1e-10
