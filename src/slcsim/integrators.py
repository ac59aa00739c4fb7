"""Time integration: semi-implicit Euler-Maruyama, windowed Picard iteration
and the Picard map's contraction probe.

Both schemes discretize one equation on one Brownian realization through
one step body, ``_step``, with the drift of :func:`slcsim.operators.drift`:

    y+ = S(dt) [ base + theta * dt * (-F - L)(at) + theta * G(at) dW ]

EM steps with base = at = y, theta = 1 and the implicit Euler velocity
solve; S(dt) alone, ``_linear_step``, gives Picard's zeroth iterate.  A
Picard sweep is the exact recursion u_{j+1} = _step(u_j, prev_j) with the
exact velocity semigroup, which reproduces left-endpoint Riemann/Ito
convolution sums against the semigroup without the O(N^2) cost of
assembling them directly.  Its theta_j = theta(|prev|_{X_t} / radius)
reads the previous iterate's running path norm ``_xt_norms``, which on the
node differences of two iterates is also the sweep distance.  Sweep m fixes
node m for good, so each sweep starts after the nodes earlier sweeps fixed,
and it overwrites the iterate node by node: one iterate is kept alive.
``contraction_slopes`` fits how the sweep ratios scale with the window
length, and ``contraction_probe`` reports that fit as a probe result.

Each scheme is a stream of nodes, one EM step per Brownian increment or the
nodes of each solved Picard window in order.  ``run_trajectory`` takes either
through one loop that owns the per-node rules: the finite check, the phi
integral, the stopping thresholds, the series rows, the snapshots, the
advective CFL warning and the trajectory's status.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig, _step_count
from .diagnostics import ProbeResult, max_principle_gap, penalty_energy, phi_rate
from .diagnostics import psi_functional, richardson_order
from .errors import DomainError
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
    "TrajectoryRecord",
    "WindowStats",
    "theta_cutoff",
    "detect_tau",
    "initial_state",
    "em_step",
    "picard_solve",
    "contraction_slopes",
    "contraction_probe",
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


def detect_tau(hits: dict[float, float], thresholds, t: float, blowup: float) -> bool:
    """Record in ``hits`` the first time t at which blowup = |A^{1/2} v| + |Delta d|
    exceeds each of the ascending ``thresholds``.

    Smaller thresholds only get logged; True once the largest one has been
    crossed, which halts the trajectory.
    """
    for k in thresholds:
        if blowup > k and k not in hits:
            hits[k] = t
    return thresholds[-1] in hits


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
    v_star = base.v if cfg.freeze_velocity else (
        base.v + theta * dt * dv + theta * velocity_noise_increment(cache, at.v, dw1))
    v_new, d_new = _linear_step(grid, v_star, d_star, dt, cfg, velocity_solve)
    return State(grid=grid, v=v_new, d=d_new, t=at.t + dt)


def _linear_step(grid: Grid, v: np.ndarray, d: np.ndarray, dt: float, cfg: SimConfig,
                 velocity_solve) -> tuple[np.ndarray, np.ndarray]:
    """The linear half of a step: ``velocity_solve`` on v unless the velocity
    is frozen, and the director semigroup on d when the director diffuses."""
    if not cfg.freeze_velocity:
        v = velocity_solve(grid, v, dt)
    if cfg.director_diffusion:
        d = semigroup_director(grid, d, dt)
    return v, d


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
    converged: bool
    distances: tuple[float, ...]  # one per sweep
    min_theta: float = 1.0  # 1.0 means the cutoff never engaged

    @property
    def iterations(self) -> int:
        return len(self.distances)

    @property
    def ratios(self) -> tuple[float, ...]:
        """Each sweep's distance over the one before, where that is positive."""
        ds = self.distances
        return tuple(ds[m] / ds[m - 1] for m in range(1, len(ds)) if ds[m - 1] > 0.0)


def _xt_norms(norms, dt: float) -> np.ndarray:
    """Running path norm sqrt(sup_{i<=j} |u_i|_V^2 + sum_{i<j} |u_i|_E^2 dt) at
    every node j, from the nodes' (V-norm, E-norm) pairs."""
    vs, es = np.array(norms).T
    run_sup = np.maximum.accumulate(np.square(vs))
    run_int = np.concatenate([[0.0], np.cumsum(np.square(es[:-1]) * dt)])
    return np.sqrt(run_sup + run_int)


def _ve_norms(state: State) -> tuple[float, float]:
    return state.summary["v_norm"], state.summary["e_norm"]


def _non_finite(state: State) -> tuple[str, ...]:
    """The fields of ``state`` that are not finite or, where both are, the
    entries of its summary that are not: a field can be finite while one of
    its norms overflows.  A state is healthy when this is empty."""
    fields = tuple(k for k in ("v", "d") if not np.all(np.isfinite(getattr(state, k))))
    return fields or tuple(k for k, x in state.summary.items() if not math.isfinite(x))


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
    distance within ``tolerance`` of a finite path norm.  Each sweep reads
    the path norm of the iterate it starts from off its nodes' summaries.

    A sweep is causal: node j+1 reads nodes <= j of the current and the
    previous iterate, so after sweep m nodes 0..m are final and every later
    sweep would reproduce them bit for bit.  Each sweep therefore starts
    after the healthy final prefix, whose differences are exactly zero and
    whose summaries it reuses.  The iterate is overwritten node by node, so
    one iterate stays alive, and every node keeps its ``summary``.
    """
    grid = cache.grid
    dt = path.dt
    radius = cfg.truncation_radius
    n = n_window_steps

    # zeroth iterate: free linear evolution of y0
    nodes: list[State] = [y0]
    for j in range(n):
        v, d = _linear_step(grid, nodes[-1].v, nodes[-1].d, dt, cfg, semigroup_velocity_exact)
        nodes.append(State(grid, v, d, y0.t + (j + 1) * dt))

    # nodes[:fixed] are final and healthy (``_non_finite`` is empty): no sweep
    # recomputes them, and their differences, exactly zero, stay out of the
    # distance.  A node that is not healthy, y0 included, never joins: a NaN
    # difference must reach the distance, and a final node whose summary
    # overflowed is recomputed bit for bit, so its difference is exactly zero.
    # fixed stops at n, so every sweep recomputes at least the last node.
    fixed = 0 if _non_finite(y0) else 1
    distances: list[float] = []
    converged = False
    min_theta = 1.0
    for _ in range(cfg.max_iterations):
        xt_norms = _xt_norms([_ve_norms(s) for s in nodes], dt)
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
        if 0 < fixed < n and not _non_finite(nodes[fixed]):
            fixed += 1

        dist = float(_xt_norms(diffs, dt)[-1])
        distances.append(dist)
        norm = float(xt_norms[-1])
        if (math.isfinite(dist) and math.isfinite(norm)
                and dist <= cfg.tolerance * max(1.0, norm)):
            converged = True
            break

    stats = WindowStats(
        start_time=y0.t,
        converged=converged,
        distances=tuple(distances),
        min_theta=min_theta,
    )
    return nodes, stats


# ---------------------------------------------------------------------------
# contraction of the Picard map
# ---------------------------------------------------------------------------

def contraction_slopes(cfg: SimConfig, windows) -> tuple[float, list[float]]:
    """Picard contraction factor versus window length, on the first window.

    Returns the log-log slope of the per-window mean contraction ratio
    against the integrated window length (whole steps of the refined dt),
    together with the measured ratios.  The step size is refined so even the
    shortest window holds >= 64 steps; otherwise quadrature error masks the
    continuum scaling of the factor.  Every window runs on a path of zero
    increments, so the fit reads the drift's contraction, its Ito correction
    -L included, and no seed moves it.
    """
    grid = cfg.grid()
    cache = OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
    y0 = initial_state(cfg, grid)
    dt = min(cfg.dt, min(windows) / 64.0)
    ratios = []
    lengths = []
    for w in windows:
        n_win = int(round(w / dt))
        lengths.append(n_win * dt)
        path = BrownianPath(cfg.seed, 0, dt, cfg.mode_count,
                            np.zeros((n_win, cfg.mode_count + 1)))
        _, stats = picard_solve(cache, cfg, y0, path, 0, n_win)
        ds = stats.distances
        usable = [b / a for a, b in zip(ds, ds[1:]) if a > 0.0 and b > 1e-13]
        if not usable:
            raise DomainError("window converged too fast to measure a contraction ratio")
        ratios.append(float(np.exp(np.mean(np.log(usable)))))
    slope = richardson_order(ratios, lengths)
    return slope, ratios


def contraction_probe(cfg: SimConfig) -> ProbeResult:
    """``contraction_slopes`` over windows of 2^-6, 2^-5 and 2^-4, banded to
    [0.15, 0.35]: the default 64^2 config reads 0.315 at every seed, and a
    coarser grid may read outside the band (0.389 on 16^2)."""
    slope, ratios = contraction_slopes(cfg, (0.015625, 0.03125, 0.0625))
    return ProbeResult("contraction_slope", slope, 0.15, 0.35, detail=f"ratios={ratios}")


# ---------------------------------------------------------------------------
# full trajectory
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    trajectory: int
    status: str
    times: np.ndarray
    series: dict[str, np.ndarray]
    tau_hits: dict[float, float]  # threshold -> first crossing time
    steps_completed: int
    terminal: State
    windows: list[WindowStats] = field(default_factory=list)

    @property
    def non_finite(self) -> tuple[str, ...]:
        """What of the terminal state is not finite, by ``_non_finite``."""
        return _non_finite(self.terminal)


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


def _record_row(state: State, cfg: SimConfig, cache: OperatorCache, phi_weight: float) -> dict:
    """The node's series row.  energy_q, a sum of powers of nonnegative norms,
    is inf where a power overflows: Python float ** raises there."""
    q = cfg.q
    summ = state.summary
    row = dict(summ)
    try:
        row["energy_q"] = summ["l2_v"] ** q + summ["l2_d"] ** q + summ["grad_d"] ** q
    except OverflowError:
        row["energy_q"] = math.inf
    row["max_gap"] = max_principle_gap(state.grid, state.d)
    row["psi"] = psi_functional(state.grid, state.d, cache.eps)
    row["phi_weight"] = phi_weight
    row["gl_energy"] = (
        0.5 * summ["l2_v"] ** 2
        + 0.5 * summ["grad_d"] ** 2
        + penalty_energy(state.grid, state.d, cache.eps)
    )
    return row


def _warn_on_cfl(state: State, dt: float, trajectory: int) -> bool:
    """Warn, and return True, if a step of ``dt`` from ``state`` exceeds the
    advective CFL number 1."""
    if dt * float(np.max(np.abs(state.v))) / min(state.grid.spacings) <= 1.0:
        return False
    log.warning("advective CFL exceeded at t=%.6g (trajectory %d)", state.t, trajectory)
    return True


def _em_nodes(cfg: SimConfig, cache: OperatorCache, path: BrownianPath, y: State):
    """Euler-Maruyama's nodes after ``y``: one em_step per Brownian increment."""
    for j in range(path.n_steps):
        y = em_step(y, path.dt, path.w1(j), path.w2(j), cache, cfg)
        yield y


def _picard_nodes(cfg: SimConfig, cache: OperatorCache, path: BrownianPath, y: State,
                  n_win: int, windows: list[WindowStats]):
    """Picard's nodes after ``y``, solved a window of ``n_win`` steps (the last
    may be shorter) at a time from the last node of the window before.  Each
    window's stats join ``windows`` before its nodes are yielded; the stream
    ends after a window that did not converge."""
    for start in range(0, path.n_steps, n_win):
        nodes, stats = picard_solve(cache, cfg, y, path, start, min(n_win, path.n_steps - start))
        windows.append(stats)
        yield from nodes[1:]
        y = nodes[-1]
        del nodes  # not held while the next window is solved
        if not stats.converged:
            return


@np.errstate(over="ignore", invalid="ignore")
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

    The initial state is the first row.  A state is healthy when its fields
    and its summary are finite.  If the initial state is not, the trajectory
    ends as numerical_failure after 0 steps; else every node of the scheme
    counts as a step and becomes the terminal state.  A node that is not
    healthy ends it as numerical_failure without a row, and crossing the
    last threshold as stopped_at_tau with the node's row recorded
    off-cadence (a crossing at t = 0 still takes one step).  The advective
    CFL number is checked on every node that another step starts from.  A
    stream that runs out ends it as completed, or as iteration_failed after
    a window that did not converge.  NumPy's overflow and invalid-value warnings are off for the
    whole call: the numerical_failure status and the run summary name what
    was not finite instead.
    """
    grid = cfg.grid()
    cache = OperatorCache(grid, cfg.noise_spec(), cfg.magnetic_spec(), cfg.eps)
    if path is None:
        path = sample_path(cfg.seed, trajectory, cfg.dt, cfg.n_steps, cfg.mode_count)
    if path.mode_count != cfg.mode_count:
        raise ValueError("path mode count does not match config")
    dt = path.dt
    n_steps = path.n_steps
    windows: list[WindowStats] = []
    state = initial_state(cfg, grid)
    if cfg.scheme == "picard":
        nodes = _picard_nodes(cfg, cache, path, state, _step_count(cfg.window, dt, "picard window"),
                              windows)
    else:
        nodes = _em_nodes(cfg, cache, path, state)
    sink = snapshot_sink if cfg.snapshot_every else None
    times = [state.t]
    rows = [_record_row(state, cfg, cache, 1.0)]
    tau_hits: dict[float, float] = {}
    steps = 0
    status = "numerical_failure"  # kept by an initial state or node that is not healthy
    if not _non_finite(state):
        detect_tau(tau_hits, cfg.thresholds, state.t, state.summary["blowup"])
        if sink is not None:
            sink(0, state)
        phi_integral = 0.0
        cfl_warned = _warn_on_cfl(state, dt, trajectory)
        for node in nodes:
            steps += 1
            state = node
            if _non_finite(node):
                break
            summ = node.summary
            phi_integral += phi_rate(summ["l2_v"], summ["a_half_v"], grid.n_dim) * dt
            halted = detect_tau(tau_hits, cfg.thresholds, node.t, summ["blowup"])
            if steps % cfg.record_every == 0 or steps == n_steps or halted:
                times.append(node.t)
                rows.append(_record_row(node, cfg, cache, float(np.exp(-phi_integral))))
            if sink is not None and steps % cfg.snapshot_every == 0:
                sink(steps, node)
            if halted:
                status = "stopped_at_tau"
                break
            if steps < n_steps and not cfl_warned:
                cfl_warned = _warn_on_cfl(node, dt, trajectory)
        else:
            status = "iteration_failed" if windows and not windows[-1].converged else "completed"

    return TrajectoryRecord(
        trajectory=trajectory,
        status=status,
        times=np.array(times),
        series={k: np.array([r[k] for r in rows]) for k in _SERIES_KEYS},
        tau_hits=tau_hits,
        steps_completed=steps,
        terminal=state,
        windows=windows,
    )


def _run_one(cfg: SimConfig, trajectory: int) -> TrajectoryRecord:
    """The pool pickles this by name; it reads run_trajectory at call time."""
    return run_trajectory(cfg, trajectory=trajectory)


def run_ensemble(cfg: SimConfig, workers: int) -> list[TrajectoryRecord]:
    """Trajectories 0 .. cfg.trajectories - 1 in order, run by at most
    min(workers, cfg.trajectories, usable CPUs) processes; one runs them here.
    The usable CPUs are the process's affinity mask where the platform has
    one, else the machine's CPU count."""
    n = cfg.trajectories
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, n, cpus or 1)
    if workers == 1:
        return [_run_one(cfg, i) for i in range(n)]
    # only a pooled ensemble pays for importing the pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, [cfg] * n, range(n)))
