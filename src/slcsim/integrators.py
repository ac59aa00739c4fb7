"""Time integration: semi-implicit Euler-Maruyama and windowed Picard iteration.

Both schemes discretize one equation on one Brownian realization through
one step body, ``_step``, with the drift of :func:`slcsim.operators.drift`:

    y+ = S(dt) [ base + theta * dt * (-F - L)(at) + theta * G(at) dW ]

EM steps with base = at = y, theta = 1 and the implicit Euler velocity
solve.  A Picard sweep is the exact recursion u_{j+1} = _step(u_j, prev_j)
with the exact velocity semigroup, which reproduces left-endpoint
Riemann/Ito convolution sums against the semigroup without the O(N^2) cost
of assembling them directly.  Its theta_j = theta(|prev|_{X_t} / radius)
reads the previous iterate's running path norm ``_xt_norms``, which on the
node differences of two iterates is also the sweep distance.  Sweep m fixes
node m for good, so each sweep starts after the nodes earlier sweeps fixed,
and it overwrites the iterate node by node: one iterate is kept alive.

``run_trajectory`` feeds the nodes of either scheme, one at a time, into a
single per-node path (``_NodeLoop.advance``): the finite check, the phi
integral, the stopping thresholds, the series rows, the snapshots and the
advective CFL warning.  EM hands it each step; Picard hands it the nodes of
each solved window in order, and both stop on the same rule.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig, _step_count
from .diagnostics import max_principle_gap, penalty_energy, phi_rate, psi_functional
from .fields import State
from .grid import Grid
from .noise import BrownianPath, sample_path
from .operators import (
    OperatorCache,
    director_noise_increment,
    drift,
    leray_project,
    semigroup_director,
    semigroup_velocity_exact,
    semigroup_velocity_step,
    velocity_noise_increment,
)

__all__ = [
    "StoppingRecord",
    "TrajectoryRecord",
    "WindowStats",
    "theta_cutoff",
    "detect_tau",
    "initial_state",
    "em_step",
    "picard_solve",
    "run_trajectory",
    "run_ensemble",
]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# truncation and stopping
# ---------------------------------------------------------------------------

def theta_cutoff(x: float, radius: float) -> float:
    """Piecewise-linear bump: 1 on [0, n], 0 on [2n, inf), slope -1/n between.

    This is the unique shape meeting all three contract points at once
    (identity below n, vanishing above 2n, Lipschitz constant exactly 1/n).
    """
    if x < 0.0:
        raise ValueError("cutoff argument must be nonnegative")
    return float(np.clip(2.0 - x / radius, 0.0, 1.0))


@dataclass
class StoppingRecord:
    """First crossing times of the blow-up functional over each threshold."""

    thresholds: tuple[float, ...]
    hits: dict[float, float] = field(default_factory=dict)
    halted: bool = False


def detect_tau(state: State, record: StoppingRecord, blowup: float) -> StoppingRecord:
    """Record threshold crossings of blowup = |A^{1/2} v| + |Delta d| at state.t.

    Smaller thresholds only get logged; crossing the largest one halts the
    trajectory (record.halted) so the caller can stop integrating.
    """
    for k in record.thresholds:
        if blowup > k and k not in record.hits:
            record.hits[k] = state.t
    if record.thresholds and record.thresholds[-1] in record.hits:
        record.halted = True
    return record


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def initial_state(cfg: SimConfig, grid: Grid) -> State:
    coords = grid.meshgrid()
    v = np.zeros((grid.n_dim, *grid.cells))
    if cfg.velocity_profile == "taylor_vortex":
        a = cfg.velocity_amplitude
        lx, ly = grid.lengths[0], grid.lengths[1]
        x, y = coords[0], coords[1]
        sx, sy = np.sin(np.pi * x / lx), np.sin(np.pi * y / ly)
        v[0] = a * sx * sx * np.sin(2.0 * np.pi * y / ly)
        v[1] = -a * (ly / lx) * np.sin(2.0 * np.pi * x / lx) * sy * sy
        if grid.n_dim == 3:
            sz = np.sin(np.pi * coords[2] / grid.lengths[2])
            v[0] *= sz * sz
            v[1] *= sz * sz
        v = leray_project(grid, v)
    d = np.zeros((3, *grid.cells))
    a = cfg.director_amplitude
    if cfg.director_profile == "uniform":
        d[2] = a
    else:  # twist: angles with exactly zero normal derivative on every wall
        psi = np.cos(np.pi * coords[0] / grid.lengths[0])
        chi = 0.5 * np.pi + np.cos(np.pi * coords[1] / grid.lengths[1])
        d[0] = a * np.sin(chi) * np.cos(psi)
        d[1] = a * np.sin(chi) * np.sin(psi)
        d[2] = a * np.cos(chi)
    return State(grid=grid, v=v, d=d, t=0.0)


# ---------------------------------------------------------------------------
# the shared step, and Euler-Maruyama
# ---------------------------------------------------------------------------

def _step(
    base: State,
    at: State,
    dt: float,
    dw1: np.ndarray,
    dw2: float,
    cache: OperatorCache,
    cfg: SimConfig,
    theta: float,
    velocity_solve,
) -> State:
    """The step both schemes share: drift and noise taken at ``at``, scaled
    by theta and added to ``base``, then the director semigroup and
    ``velocity_solve``.  The result sits one step after ``at``."""
    grid = base.grid
    dv, dd = drift(grid, at.v, at.d, cache.eps, cache,
                   velocity=not cfg.freeze_velocity, transport=cfg.enable_transport,
                   penalty=cfg.enable_penalty)
    d_star = base.d + theta * dt * dd + theta * director_noise_increment(cache, at.d, dw2)
    d_new = semigroup_director(grid, d_star, dt) if cfg.director_diffusion else d_star
    if cfg.freeze_velocity:
        v_new = base.v
    else:
        v_star = base.v + theta * dt * dv + theta * velocity_noise_increment(cache, at.v, dw1)
        v_new = velocity_solve(grid, v_star, dt)
    return State(grid=grid, v=v_new, d=d_new, t=at.t + dt)


def em_step(
    state: State,
    dt: float,
    dw1: np.ndarray,
    dw2: float,
    cache: OperatorCache,
    cfg: SimConfig,
) -> State:
    """One explicit-drift, implicit-diffusion Euler-Maruyama step."""
    return _step(state, state, dt, dw1, dw2, cache, cfg, 1.0, semigroup_velocity_step)


# ---------------------------------------------------------------------------
# Picard iteration on one window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowStats:
    start_time: float
    iterations: int
    converged: bool
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    min_theta: float = 1.0  # 1.0 means the cutoff never engaged


def _xt_norms(norms, dt: float) -> np.ndarray:
    """Running path norm sqrt(sup_{i<=j} |u_i|_V^2 + sum_{i<j} |u_i|_E^2 dt) at
    every node j, from the nodes' (V-norm, E-norm) pairs."""
    vs, es = np.array(norms).T
    run_sup = np.maximum.accumulate(np.square(vs))
    run_int = np.concatenate([[0.0], np.cumsum(np.square(es[:-1]) * dt)])
    return np.sqrt(run_sup + run_int)


def _ve_norms(state: State) -> tuple[float, float]:
    return state.summary["v_norm"], state.summary["e_norm"]


def _is_finite(state: State) -> bool:
    return bool(np.all(np.isfinite(state.v)) and np.all(np.isfinite(state.d)))


def picard_solve(
    cache: OperatorCache,
    cfg: SimConfig,
    y0: State,
    path: BrownianPath,
    start_step: int,
    n_window_steps: int,
) -> tuple[list[State], WindowStats]:
    """Fixed-point iteration for the mild equation on one window.

    Returns the converged node trajectory (n_window_steps + 1 states) and the
    iteration statistics.  Iterates are compared in the discrete path norm
    sup_j |.|_V^2 + sum_j |.|_E^2 dt; a window converges only on a finite
    distance within ``tolerance`` of a finite path norm.

    A sweep is causal: node j+1 reads nodes <= j of the current and the
    previous iterate, so after sweep m nodes 0..m are final and every later
    sweep would reproduce them bit for bit.  Each sweep therefore starts
    after the finite final prefix, whose differences are exactly zero and
    whose norms it reuses.  The iterate is overwritten node by node, so one
    iterate stays alive, and every node keeps its ``summary`` for the caller.
    """
    grid = cache.grid
    dt = path.dt
    radius = cfg.truncation_radius
    n = n_window_steps

    # zeroth iterate: free linear evolution of y0
    nodes: list[State] = [y0]
    for j in range(n):
        v, d = nodes[-1].v, nodes[-1].d
        if not cfg.freeze_velocity:
            v = semigroup_velocity_exact(grid, v, dt)
        if cfg.director_diffusion:
            d = semigroup_director(grid, d, dt)
        nodes.append(State(grid, v, d, y0.t + (j + 1) * dt))
    norms = [_ve_norms(s) for s in nodes]

    # nodes[:fixed] are final and finite: no sweep recomputes them, and their
    # differences, exactly zero, stay out of the distance.  A non-finite node,
    # y0 included, never joins, as its NaN difference must reach the distance;
    # fixed stops at n, so every sweep recomputes at least the last node.
    fixed = 1 if _is_finite(y0) else 0
    distances: list[float] = []
    converged = False
    iterations = 0
    min_theta = 1.0
    for _ in range(cfg.max_iterations):
        iterations += 1
        xt_norms = _xt_norms(norms, dt)
        diffs = [] if fixed else [_ve_norms(State(grid, y0.v - y0.v, y0.d - y0.d, y0.t))]
        start = max(fixed - 1, 0)
        base = prev = nodes[start]
        for j in range(start, n):
            theta = theta_cutoff(float(xt_norms[j]), radius)
            min_theta = min(min_theta, theta)
            node = _step(base, prev, dt, path.w1(start_step + j), path.w2(start_step + j),
                         cache, cfg, theta, semigroup_velocity_exact)
            prev = nodes[j + 1]  # read here and by the next step, then dropped
            diffs.append(_ve_norms(State(grid, node.v - prev.v, node.d - prev.d, node.t)))
            nodes[j + 1] = base = node
            norms[j + 1] = _ve_norms(node)
        if 0 < fixed < n and _is_finite(nodes[fixed]):
            fixed += 1

        dist = float(_xt_norms(diffs, dt)[-1])
        distances.append(dist)
        norm = float(xt_norms[-1])
        if (math.isfinite(dist) and math.isfinite(norm)
                and dist <= cfg.tolerance * max(1.0, norm)):
            converged = True
            break

    ratios = tuple(
        distances[m] / distances[m - 1]
        for m in range(1, len(distances))
        if distances[m - 1] > 0.0
    )
    stats = WindowStats(
        start_time=y0.t,
        iterations=iterations,
        converged=converged,
        distances=tuple(distances),
        ratios=ratios,
        min_theta=min_theta,
    )
    return nodes, stats


# ---------------------------------------------------------------------------
# full trajectory
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    trajectory: int
    status: str
    times: np.ndarray
    series: dict[str, np.ndarray]
    stopping: StoppingRecord
    steps_completed: int
    terminal: State
    windows: list[WindowStats] = field(default_factory=list)
    non_finite: tuple[str, ...] = ()  # terminal-state fields that are not finite


_SERIES_KEYS = (
    "l2_v",
    "l2_d",
    "a_half_v",
    "a_v",
    "h2_d",
    "lap_d",
    "x1_d",
    "grad_d",
    "v_norm",
    "e_norm",
    "blowup",
    "energy_q",
    "max_gap",
    "psi",
    "phi_weight",
    "gl_energy",
)


def _record_row(state: State, summ: dict, cfg: SimConfig, cache: OperatorCache,
                phi_weight: float) -> dict:
    q = cfg.q
    row = dict(summ)
    row["energy_q"] = summ["l2_v"] ** q + summ["l2_d"] ** q + summ["grad_d"] ** q
    row["max_gap"] = max_principle_gap(state.grid, state.d)
    row["psi"] = psi_functional(state.grid, state.d, cache.eps)
    row["phi_weight"] = phi_weight
    row["gl_energy"] = (
        0.5 * summ["l2_v"] ** 2
        + 0.5 * summ["grad_d"] ** 2
        + penalty_energy(state.grid, state.d, cache.eps)
    )
    return row


class _NodeLoop:
    """Per-node bookkeeping of one trajectory, shared by both schemes.

    It starts from the initial state (recorded as the first row) and takes
    the trajectory's nodes in order through ``advance``.  A non-finite
    initial state ends the trajectory before its first step, as
    numerical_failure after 0 steps.
    """

    def __init__(self, cfg: SimConfig, cache: OperatorCache, path: BrownianPath,
                 trajectory: int, snapshot_sink) -> None:
        self.cfg = cfg
        self.cache = cache
        self.dt = path.dt
        self.n_steps = path.n_steps
        self.trajectory = trajectory
        self.sink = snapshot_sink if cfg.snapshot_every else None
        self.state = initial_state(cfg, cache.grid)
        self.stopping = StoppingRecord(thresholds=tuple(cfg.thresholds))
        self.status = "completed"
        self.steps = 0
        self.phi_integral = 0.0
        self.cfl_warned = False
        self.times: list[float] = []
        self.rows: list[dict] = []
        summ = self.state.summary
        self._record(self.state, summ)
        if not _is_finite(self.state):
            self.status = "numerical_failure"
            return
        detect_tau(self.state, self.stopping, blowup=summ["blowup"])
        self._snap(0, self.state)
        self._check_cfl(self.state)

    def advance(self, node: State) -> bool:
        """Accept the node after the next step; False once the trajectory has ended.

        The node always counts as a step and becomes the terminal state, even
        when a field is non-finite (status numerical_failure).  Crossing the
        last threshold ends the trajectory as stopped_at_tau, with its row
        recorded off-cadence.  The advective CFL number is checked on every
        node that another step starts from.
        """
        self.steps += 1
        self.state = node
        if not _is_finite(node):
            self.status = "numerical_failure"
            return False
        summ = node.summary
        self.phi_integral += phi_rate(summ["l2_v"], summ["a_half_v"], node.grid.n_dim) * self.dt
        detect_tau(node, self.stopping, blowup=summ["blowup"])
        j = self.steps
        if j % self.cfg.record_every == 0 or j == self.n_steps or self.stopping.halted:
            self._record(node, summ)
        self._snap(j, node)
        if self.stopping.halted:
            self.status = "stopped_at_tau"
            return False
        if j < self.n_steps:
            self._check_cfl(node)
        return True

    def _record(self, state: State, summ: dict) -> None:
        self.times.append(state.t)
        self.rows.append(
            _record_row(state, summ, self.cfg, self.cache, float(np.exp(-self.phi_integral)))
        )

    def _snap(self, j: int, state: State) -> None:
        if self.sink is not None and j % self.cfg.snapshot_every == 0:
            self.sink(j, state)

    def _check_cfl(self, state: State) -> None:
        if self.cfl_warned:
            return
        if self.dt * float(np.max(np.abs(state.v))) / min(state.grid.spacings) > 1.0:
            log.warning(
                "advective CFL exceeded at t=%.6g (trajectory %d)", state.t, self.trajectory
            )
            self.cfl_warned = True


def run_trajectory(
    cfg: SimConfig,
    trajectory: int = 0,
    path: BrownianPath | None = None,
    snapshot_sink=None,
) -> TrajectoryRecord:
    """Integrate one trajectory to the horizon or a stopping event.

    ``path``, when given, sets dt and the step count in place of the
    config's, which the oracles that refine one Brownian path rely on.
    snapshot_sink, when given, is called as sink(step_index, state) every
    ``cfg.snapshot_every`` steps (and for the initial state); a cadence of
    0 calls it never.
    """
    grid = cfg.grid()
    cache = OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
    if path is None:
        path = sample_path(cfg.seed, trajectory, cfg.dt, cfg.n_steps, cfg.mode_count)
    if path.mode_count != cfg.mode_count:
        raise ValueError("path mode count does not match config")
    dt = path.dt
    n_steps = path.n_steps

    loop = _NodeLoop(cfg, cache, path, trajectory, snapshot_sink)
    window_stats: list[WindowStats] = []
    if cfg.scheme == "picard":
        n_win = _step_count(cfg.window, dt, "picard window")
        while loop.steps < n_steps and loop.status == "completed":
            take = min(n_win, n_steps - loop.steps)
            nodes, stats = picard_solve(cache, cfg, loop.state, path, loop.steps, take)
            window_stats.append(stats)
            for node in nodes[1:]:
                if not loop.advance(node):
                    break
            del nodes  # not held while the next window is solved
            if not stats.converged and loop.status == "completed":
                loop.status = "iteration_failed"
    else:
        while loop.steps < n_steps and loop.status == "completed":
            j = loop.steps
            loop.advance(em_step(loop.state, dt, path.w1(j), path.w2(j), cache, cfg))

    series = {k: np.array([r[k] for r in loop.rows]) for k in _SERIES_KEYS}
    return TrajectoryRecord(
        trajectory=trajectory,
        status=loop.status,
        times=np.array(loop.times),
        series=series,
        stopping=loop.stopping,
        steps_completed=loop.steps,
        terminal=loop.state,
        windows=window_stats,
        non_finite=tuple(k for k in ("v", "d") if not np.all(np.isfinite(getattr(loop.state, k)))),
    )


def _run_one(cfg: SimConfig, trajectory: int) -> TrajectoryRecord:
    """The pool pickles this by name; it reads run_trajectory at call time."""
    return run_trajectory(cfg, trajectory=trajectory)


def run_ensemble(cfg: SimConfig, workers: int) -> list[TrajectoryRecord]:
    """Trajectories 0 .. cfg.trajectories - 1 in order, run by at most
    min(workers, cfg.trajectories, CPU count) processes; one runs them here."""
    n = cfg.trajectories
    workers = min(workers, n, os.cpu_count() or 1)
    if workers == 1:
        return [_run_one(cfg, i) for i in range(n)]
    # only a pooled ensemble pays for importing the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, [cfg] * n, range(n)))
