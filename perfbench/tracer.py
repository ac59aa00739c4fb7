"""Spans around calls into slcsim's public functions, installed from outside.

`install` replaces each traced function with a wrapper in its defining
module and in every slcsim module (or class) that bound it by name, and
`uninstall` puts the originals back.  A wrapper times the call, and its
self time is the span's duration minus the durations of the traced calls
it made.  Spans are folded into per-name totals as they close, so memory
does not grow with the run.  No file of slcsim changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# metric name -> (module, attribute); several attributes may share a name
TARGETS = (
    ("grid.transform", "slcsim.grid", "cosine_transform"),
    ("grid.transform", "slcsim.grid", "inverse_cosine_transform"),
    ("grid.transform", "slcsim.grid", "sine_transform"),
    ("grid.transform", "slcsim.grid", "inverse_sine_transform"),
    ("grid.spectrum", "slcsim.grid", "Grid.spectrum"),
    ("grid.centered_diff", "slcsim.grid", "centered_diff"),
    ("fields.spectral_summary", "slcsim.fields", "spectral_summary"),
    ("operators.leray_project", "slcsim.operators", "leray_project"),
    ("operators.ericksen_divergence", "slcsim.operators", "ericksen_divergence"),
    ("operators.b1", "slcsim.operators", "b1"),
    ("operators.b2", "slcsim.operators", "b2"),
    ("operators.semigroup", "slcsim.operators", "semigroup_director"),
    ("operators.semigroup", "slcsim.operators", "semigroup_velocity_step"),
    ("operators.noise_increment", "slcsim.operators", "velocity_noise_increment"),
    ("operators.noise_increment", "slcsim.operators", "director_noise_increment"),
    ("operators.assemble_L", "slcsim.operators", "assemble_L"),
    ("operators.f_penalty", "slcsim.operators", "f_penalty"),
    ("operators.OperatorCache.init", "slcsim.operators", "OperatorCache.__init__"),
    ("noise.sample_path", "slcsim.noise", "sample_path"),
    ("config.parse_config_file", "slcsim.config", "parse_config_file"),
    ("integrators.em_step", "slcsim.integrators", "em_step"),
    ("integrators.picard_solve", "slcsim.integrators", "picard_solve"),
    ("integrators.run_trajectory", "slcsim.integrators", "run_trajectory"),
    ("diagnostics.psi_functional", "slcsim.diagnostics", "psi_functional"),
    ("diagnostics.max_principle_gap", "slcsim.diagnostics", "max_principle_gap"),
    ("diagnostics.penalty_energy", "slcsim.diagnostics", "penalty_energy"),
    ("diagnostics.random_smooth_scalar", "slcsim.diagnostics", "random_smooth_scalar"),
    ("diagnostics.lipschitz_probe_F", "slcsim.diagnostics", "lipschitz_probe_F"),
    ("diagnostics.duality_gap", "slcsim.diagnostics", "duality_gap"),
    ("diagnostics.ensemble_energy_bound", "slcsim.diagnostics", "ensemble_energy_bound"),
    ("diagnostics.probe_suite", "slcsim.diagnostics", "probe_suite"),
    ("cli.main", "slcsim.cli", "main"),
)

SAMPLED = {"integrators.em_step"}  # names whose every span duration is kept


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, _, _ in TARGETS}
        self.picard_sweeps = 0
        self._children: list[float] = []  # per open span: time spent in traced children
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        keep = name in SAMPLED
        stack = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - child
                if keep:
                    st.durations.append(dur)
            if name == "integrators.picard_solve":
                self.picard_sweeps += result[1].iterations
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for modname in {modname for _, modname, _ in TARGETS}:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "slcsim" or n.startswith("slcsim."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._set(owner, attr, wrapper)
            if cls_name:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
