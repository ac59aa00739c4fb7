"""The batch axis: a batched field is shaped (component, item, *cells), and
every batched operator, norm kernel and probe kernel gives each item the
bytes of that item alone.

The per-item results are the single-field calls, which the oracles of
test_operators.py and test_diagnostics.py pin in turn, so these checks carry
those oracles over to the batches the probe suite runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from slcsim import diagnostics
from slcsim.diagnostics import (
    _series,
    lipschitz_probe_F,
    probe_suite,
    random_probe_states,
    random_smooth_scalar,
    random_smooth_vector,
)
from slcsim.fields import State, _h_norms, _l2_norms, _summaries, h_norm, l2_norm, spectral_summary
from slcsim.grid import build_grid
from slcsim.operators import b1, b2, drift, ericksen_divergence, f_penalty, leray_project

GRIDS = [
    build_grid(2, (16, 16), (1.0, 1.0)),
    build_grid(2, (32, 32), (1.0, 1.0)),
    build_grid(2, (64, 64), (1.0, 1.0)),
    build_grid(3, (8, 8, 16), (1.0, 1.0, 2.0)),
]
IDS = ["16", "32", "64", "8x8x16"]
SEEDS = (0, 7, 50005)


def _items(batch: np.ndarray) -> list[np.ndarray]:
    """Each item of a batch (component, item, *cells) as a contiguous field."""
    return [np.ascontiguousarray(batch[:, i]) for i in range(batch.shape[1])]


def _batch(grid, seed_offset: int):
    """Per seed: a solenoidal velocity, a second velocity field and a director
    near unit length, each drawn alone; returned batched and per item."""
    vs = [leray_project(grid, random_smooth_vector(grid, s + seed_offset, grid.n_dim))
          for s in SEEDS]
    ws = [random_smooth_vector(grid, s + seed_offset + 1, grid.n_dim) for s in SEEDS]
    ds = [random_smooth_vector(grid, s + seed_offset + 2, 3, "neumann", 0.5) for s in SEEDS]
    for d in ds:
        d[2] += 1.0
    return [(np.stack(fields, axis=1), fields) for fields in (vs, ws, ds)]


def _same_bytes(batched: np.ndarray, per_item: list[np.ndarray]) -> None:
    assert batched.shape[1] == len(per_item)
    for got, want in zip(_items(batched), per_item):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_batched_operators_match_each_item_bitwise(grid):
    (v, vs), (w, ws), (d, ds) = _batch(grid, 0)
    (_, _), (_, _), (e, es) = _batch(grid, 100)
    _same_bytes(b1(grid, v, w), [b1(grid, a, b) for a, b in zip(vs, ws)])
    _same_bytes(b2(grid, v, d), [b2(grid, a, b) for a, b in zip(vs, ds)])
    _same_bytes(ericksen_divergence(grid, d, d), [ericksen_divergence(grid, a, a) for a in ds])
    _same_bytes(ericksen_divergence(grid, d, e),
                [ericksen_divergence(grid, a, b) for a, b in zip(ds, es)])
    _same_bytes(leray_project(grid, w), [leray_project(grid, a) for a in ws])
    _same_bytes(f_penalty(d, 0.5), [f_penalty(a, 0.5) for a in ds])
    dv, dd = drift(grid, v, d, 1.0)
    per_item = [drift(grid, a, b, 1.0) for a, b in zip(vs, ds)]
    _same_bytes(dv, [x for x, _ in per_item])
    _same_bytes(dd, [x for _, x in per_item])


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
@pytest.mark.parametrize("slab_bytes", [None, 1], ids=["slabs", "one-row"])
def test_series_kernel_matches_each_item_bitwise(grid, slab_bytes, monkeypatch):
    expected = {bc: [random_smooth_scalar(grid, s, bc, 0.5) for s in SEEDS]
                for bc in ("dirichlet", "neumann")}
    if slab_bytes is not None:
        monkeypatch.setattr(diagnostics, "_SLAB_BYTES", slab_bytes)
    for bc, fields in expected.items():
        got = _series(grid, SEEDS, bc, 0.5)
        assert got.shape == (len(SEEDS), *grid.cells)
        for item, want in zip(got, fields):
            assert item.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_batched_norms_match_each_item_exactly(grid):
    (v, vs), (w, ws), (d, ds) = _batch(grid, 0)
    summaries = [spectral_summary(State(grid, a, b)) for a, b in zip(vs, ds)]
    assert _summaries(grid, v, d) == summaries
    assert len(summaries[0]) == 11
    for batch, fields in ((v, vs), (w, ws), (d, ds)):
        assert _l2_norms(grid, batch).tolist() == [l2_norm(grid, a) for a in fields]
    for batch, fields, bc_kind in ((w, ws, "dirichlet"), (d, ds, "neumann")):
        assert _h_norms(grid, batch, 1, bc_kind).tolist() == [
            h_norm(grid, a, 1, bc_kind) for a in fields
        ]


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_batched_probe_states_and_lipschitz_ratios_match_each_item(grid):
    amplitudes = (0.5, 1.0, 2.0)
    seeds = list(SEEDS)
    firsts = list(random_probe_states(grid, seeds, amplitudes))
    seconds = list(random_probe_states(grid, [s + 50000 for s in seeds], amplitudes))
    assert [len(states) for states in firsts] == [len(seeds)] * len(amplitudes)
    for i, (y1s, y2s) in enumerate(zip(firsts, seconds)):
        for seed, y1 in zip(seeds, y1s):
            alone = list(random_probe_states(grid, [seed], amplitudes))[i][0]
            assert y1.v.tobytes() == alone.v.tobytes()
            assert y1.d.tobytes() == alone.d.tobytes()
        assert lipschitz_probe_F(y1s, y2s) == [
            lipschitz_probe_F([a], [b])[0] for a, b in zip(y1s, y2s)
        ]


def test_probe_suite_does_not_depend_on_the_batch_size(monkeypatch):
    """One seed per batch runs every 100-field loop one field at a time; an
    uneven size leaves a short last batch.  The report is the same."""
    reports = []
    for size in (1, diagnostics._SEEDS_PER_BATCH, 7):
        monkeypatch.setattr(diagnostics, "_SEEDS_PER_BATCH", size)
        reports.append([(r.name, r.value, r.detail) for r in probe_suite(seed=3)])
    assert reports[0] == reports[1] == reports[2]
