"""Time integration: semi-implicit Euler-Maruyama and windowed Picard iteration.

Both schemes share one Brownian realization.  The EM step treats every
nonlinear and noise term explicitly at the left endpoint and then applies
the linear solves (implicit Euler per sine mode for velocity, exact
exponential per cosine mode for the director).  The Picard scheme solves
the mild fixed-point equation window by window: each sweep is the exact
recursion

    u_{j+1} = S(dt) [ u_j + dt * g_j + xi_j ]

which reproduces left-endpoint Riemann/Ito convolution sums against the
semigroup without the O(N^2) cost of assembling them directly.  The drift
and diffusion entering a sweep are truncated by theta(|u|_{X_t} / radius)
evaluated on the previous iterate's running path norm.  Both schemes take
the drift from :func:`slcsim.operators.drift` and the linear solves from
the semigroups in :mod:`slcsim.operators`.

``run_trajectory`` feeds the nodes of either scheme, one at a time, into a
single per-node path (``_NodeLoop.advance``): the finite check, the phi
integral, the stopping thresholds, the series rows, the snapshots and the
advective CFL warning.  EM hands it each step; Picard hands it the nodes of
each solved window in order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .diagnostics import max_principle_gap, penalty_energy, phi_rate, psi_functional
from .fields import State, spectral_summary
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


def detect_tau(state: State, record: StoppingRecord, blowup: float | None = None) -> StoppingRecord:
    """Record threshold crossings of |A^{1/2} v| + |Delta d| at the current time.

    Smaller thresholds only get logged; crossing the largest one halts the
    trajectory (record.halted) so the caller can stop integrating.
    """
    if blowup is None:
        blowup = spectral_summary(state)["blowup"]
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
# Euler-Maruyama
# ---------------------------------------------------------------------------

def em_step(
    state: State,
    dt: float,
    dw1: np.ndarray,
    dw2: float,
    cache: OperatorCache,
    cfg: SimConfig,
) -> State:
    """One explicit-drift, implicit-diffusion Euler-Maruyama step."""
    grid = state.grid
    dv, dd = drift(grid, state.v, state.d, cache.eps, cache,
                   velocity=not cfg.freeze_velocity, transport=cfg.enable_transport,
                   penalty=cfg.enable_penalty)
    d_star = state.d + dt * dd + director_noise_increment(cache, state.d, dw2)
    d_new = (
        semigroup_director(grid, d_star, dt) if cfg.director_diffusion else d_star
    )
    if cfg.freeze_velocity:
        v_new = state.v
    else:
        v_star = state.v + dt * dv + velocity_noise_increment(cache, state.v, dw1)
        v_new = semigroup_velocity_step(grid, v_star, dt)
    return State(grid=grid, v=v_new, d=d_new, t=state.t + dt)


# ---------------------------------------------------------------------------
# Picard iteration on one window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowStats:
    start_time: float
    window: float
    iterations: int
    converged: bool
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    min_theta: float = 1.0  # 1.0 means the cutoff never engaged


def _node_norms(states: list[State]) -> tuple[np.ndarray, np.ndarray]:
    vs = np.empty(len(states))
    es = np.empty(len(states))
    for j, s in enumerate(states):
        summ = spectral_summary(s)
        vs[j] = summ["v_norm"]
        es[j] = summ["e_norm"]
    return vs, es


def _xt_distance(a: list[State], b: list[State], dt: float) -> float:
    sup_sq = 0.0
    int_sq = 0.0
    for j in range(len(a)):
        diff = State(a[j].grid, a[j].v - b[j].v, a[j].d - b[j].d, a[j].t)
        summ = spectral_summary(diff)
        sup_sq = max(sup_sq, summ["v_norm"] ** 2)
        if j < len(a) - 1:
            int_sq += summ["e_norm"] ** 2 * dt
    return float(np.sqrt(sup_sq + int_sq))


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
    sup_j |.|_V^2 + sum_j |.|_E^2 dt.
    """
    grid = cache.grid
    dt = path.dt
    radius = cfg.truncation_radius

    # zeroth iterate: free linear evolution of y0
    prev: list[State] = [y0]
    for j in range(n_window_steps):
        v, d = prev[-1].v, prev[-1].d
        if not cfg.freeze_velocity:
            v = semigroup_velocity_exact(grid, v, dt)
        if cfg.director_diffusion:
            d = semigroup_director(grid, d, dt)
        prev.append(State(grid, v, d, y0.t + (j + 1) * dt))

    distances: list[float] = []
    converged = False
    iterations = 0
    min_theta = 1.0
    for _ in range(cfg.max_iterations):
        iterations += 1
        vs, es = _node_norms(prev)
        run_sup = np.maximum.accumulate(vs**2)
        run_int = np.concatenate([[0.0], np.cumsum(es[:-1] ** 2 * dt)])
        xt_norms = np.sqrt(run_sup + run_int)

        cur: list[State] = [y0]
        for j in range(n_window_steps):
            theta = theta_cutoff(float(xt_norms[j]), radius)
            min_theta = min(min_theta, theta)
            uj = prev[j]
            dv, dd = drift(grid, uj.v, uj.d, cache.eps, cache,
                           velocity=not cfg.freeze_velocity,
                           transport=cfg.enable_transport, penalty=cfg.enable_penalty)
            dw1 = path.w1(start_step + j)
            dw2 = path.w2(start_step + j)
            d_star = (
                cur[-1].d
                + theta * (dt * dd + director_noise_increment(cache, uj.d, dw2))
            )
            d_new = semigroup_director(grid, d_star, dt) if cfg.director_diffusion else d_star
            if cfg.freeze_velocity:
                v_new = cur[-1].v
            else:
                v_star = (
                    cur[-1].v
                    + theta * (dt * dv + velocity_noise_increment(cache, uj.v, dw1))
                )
                v_new = semigroup_velocity_exact(grid, v_star, dt)
            cur.append(State(grid, v_new, d_new, uj.t + dt))

        dist = _xt_distance(cur, prev, dt)
        distances.append(dist)
        prev = cur
        scale = max(1.0, float(xt_norms[-1]))
        if dist <= cfg.tolerance * scale:
            converged = True
            break

    ratios = tuple(
        distances[m] / distances[m - 1]
        for m in range(1, len(distances))
        if distances[m - 1] > 0.0
    )
    stats = WindowStats(
        start_time=y0.t,
        window=n_window_steps * dt,
        iterations=iterations,
        converged=converged,
        distances=tuple(distances),
        ratios=ratios,
        min_theta=min_theta,
    )
    return prev, stats


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
    the trajectory's nodes in order through ``advance``.
    """

    def __init__(self, cfg: SimConfig, cache: OperatorCache, path: BrownianPath,
                 trajectory: int, snapshot_sink) -> None:
        self.cfg = cfg
        self.cache = cache
        self.dt = path.dt
        self.n_steps = path.n_steps
        self.trajectory = trajectory
        self.sink = snapshot_sink if cfg.save_snapshots and cfg.snapshot_every > 0 else None
        self.state = initial_state(cfg, cache.grid)
        self.stopping = StoppingRecord(thresholds=tuple(cfg.thresholds))
        self.status = "completed"
        self.steps = 0
        self.phi_integral = 0.0
        self.cfl_warned = False
        self.times: list[float] = []
        self.rows: list[dict] = []
        summ = spectral_summary(self.state)
        detect_tau(self.state, self.stopping, blowup=summ["blowup"])
        self._record(self.state, summ)
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
        if not (np.all(np.isfinite(node.v)) and np.all(np.isfinite(node.d))):
            self.status = "numerical_failure"
            return False
        summ = spectral_summary(node)
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
    cache: OperatorCache | None = None,
    snapshot_sink=None,
) -> TrajectoryRecord:
    """Integrate one trajectory to the horizon or a stopping event.

    snapshot_sink, when given, is called as sink(step_index, state) at the
    configured snapshot cadence (and for the initial state).
    """
    grid = cfg.grid()
    if cache is None:
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
        n_win = max(1, int(round(cfg.window / dt)))
        while loop.steps < n_steps and loop.status == "completed" and not loop.stopping.halted:
            take = min(n_win, n_steps - loop.steps)
            nodes, stats = picard_solve(cache, cfg, loop.state, path, loop.steps, take)
            window_stats.append(stats)
            for node in nodes[1:]:
                if not loop.advance(node):
                    break
            if not stats.converged and loop.status == "completed":
                loop.status = "iteration_failed"
    else:
        for j in range(n_steps):
            if not loop.advance(em_step(loop.state, dt, path.w1(j), path.w2(j), cache, cfg)):
                break

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
    )
