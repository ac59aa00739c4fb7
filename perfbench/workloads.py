"""The benchmark's workloads: one `slcsim` CLI call each, and what it must produce.

Each workload is a closed loop of identical CLI calls.  The full sizes are
small cuts of the traffic that dominates the acceptance suite; the quick
sizes run the same verbs, configs and checks on a 16^2 grid in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

# inputs shared by every simulating workload; config_text() writes each of
# them, and the oracles in checks.py read them from here, not from slcsim
DT = 0.001
LENGTHS = (1.0, 1.0)  # the unit box
DIRECTOR_AMPLITUDE = 0.9  # |d0| on every cell, for either director profile
MAX_ITERATIONS = 60  # Picard sweeps allowed per window

# probes run by `slcsim probes --skip-contraction`, in report order
PROBE_NAMES = (
    "b1_skew_symmetry",
    "b2_skew_symmetry",
    "leray_idempotence",
    "leray_gradient_annihilation",
    "duality_order",
    "gn_l4_refinement_stability",
    "gn_linf_refinement_stability",
    "remark_bound_stability",
    "lipschitz_amplitude_stability",
)


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "ensemble", "run" or "probes"
    cells: int = 64
    n_steps: int = 0
    record_every: int = 1
    window_steps: int = 0  # Picard window in steps; 0 for Euler-Maruyama
    trajectories: int = 1
    workers: int = 1  # SLCSIM_WORKERS of the measured call

    @property
    def scheme(self) -> str:
        return "picard" if self.window_steps else "em"

    def config_text(self) -> str:
        """INI file for the call; every key not named keeps its default."""
        if self.verb == "probes":
            return ""  # the probe suite builds its own grids and reads only the seed
        lines = [
            "[grid]",
            f"cells = {self.cells} {self.cells}",
            "lengths = " + " ".join(repr(x) for x in LENGTHS),
            "[time]",
            f"dt = {DT!r}",
            f"horizon = {self.n_steps * DT!r}",
            f"scheme = {self.scheme}",
            "[initial]",
            f"director_amplitude = {DIRECTOR_AMPLITUDE!r}",
            "[picard]",
            f"max_iterations = {MAX_ITERATIONS}",
            "[diagnostics]",
            f"record_every = {self.record_every}",
        ]
        if self.window_steps:
            lines.insert(lines.index("[picard]") + 1, f"window = {self.window_steps * DT!r}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        argv = [self.verb, "--config", config_path, "--seed", str(seed), "--out", out_dir]
        if self.verb == "ensemble":
            argv += ["--trajectories", str(self.trajectories)]
        if self.verb == "probes":
            argv.append("--skip-contraction")
        return argv


_FULL = (
    # criterion 7's configuration (64^2 defaults, record_every = 5), cut to
    # 4 trajectories x 250 steps so a call takes seconds, on both cores
    Workload("ensemble-em-64", "ensemble", n_steps=250, record_every=5,
             trajectories=4, workers=2),
    # two 64-step windows: the sweep count of one window moves between 9 and
    # 10 with the seed, and two windows halve that jump relative to the call
    Workload("picard-64", "run", n_steps=128, window_steps=64),
    Workload("probes", "probes"),
)

_QUICK = (
    Workload("ensemble-em-64", "ensemble", cells=16, n_steps=20, record_every=5,
             trajectories=2, workers=2),
    Workload("picard-64", "run", cells=16, n_steps=16, window_steps=8),
    Workload("probes", "probes"),
)


def workloads(quick: bool = False) -> dict[str, Workload]:
    return {w.name: w for w in (_QUICK if quick else _FULL)}
