"""Run configuration: parsing, validation, canonical serialization.

A ``SimConfig`` is validated on construction, ``dataclasses.replace``
included, so every config that exists is valid.  The on-disk format is
sectioned ``key = value`` text (INI), each value parsed as the type of its
field's default.  Parsing is strict: unknown sections or keys are errors,
and every violation found is reported in one aggregated one-line message
rather than first-failure-wins.  A round trip through
``to_text``/``parse_config`` is lossless.  Step counts are never rounded:
``horizon/dt``, and for Picard ``window/dt``, must be whole numbers of
steps.

No physics parameter defaults silently: the resolved configuration, with
every default filled in, is echoed into the run manifest before compute.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .grid import Grid, build_grid
from .operators import MagneticFieldSpec, NoiseCoefficientSpec

__all__ = ["SimConfig", "parse_config", "parse_config_file", "to_text"]


@dataclass(frozen=True)
class SimConfig:
    """All physical, numerical, noise, and bookkeeping parameters of a run."""

    # [grid]
    n_dim: int = 2
    cells: tuple[int, ...] = (64, 64)
    lengths: tuple[float, ...] = (1.0, 1.0)
    # [time]
    dt: float = 1e-3
    horizon: float = 1.0
    scheme: str = "em"
    # [physics]
    eps: float = 1.0
    q: float = 2.0
    # [velocity_noise]
    noise_kind: str = "additive_trace_class"
    sigma: float = 0.05
    decay_exponent: float = 1.5
    mode_count: int = 16
    clip: float = 1.0
    # [magnetic]
    magnetic_profile: str = "sine_bump"
    magnetic_amplitude: float = 1.0
    # [initial]
    velocity_profile: str = "taylor_vortex"
    velocity_amplitude: float = 1.0
    director_profile: str = "twist"
    director_amplitude: float = 0.9
    # [picard]
    window: float = 0.064
    tolerance: float = 1e-9
    max_iterations: int = 60
    truncation_radius: float = 1e6
    # [stopping]
    thresholds: tuple[float, ...] = (1000.0,)
    # [diagnostics]
    record_every: int = 1
    freeze_velocity: bool = False
    director_diffusion: bool = True
    enable_penalty: bool = True
    enable_transport: bool = True
    # [output]
    snapshot_every: int = 0
    # [run]
    seed: int = 0
    trajectories: int = 1

    def __post_init__(self) -> None:
        validate(self)

    def grid(self) -> Grid:
        return build_grid(self.n_dim, self.cells, self.lengths)

    def noise_spec(self) -> NoiseCoefficientSpec:
        return NoiseCoefficientSpec(
            kind=self.noise_kind,
            sigma=self.sigma,
            decay_exponent=self.decay_exponent,
            mode_count=self.mode_count,
            clip=self.clip,
        )

    def magnetic_spec(self) -> MagneticFieldSpec:
        return MagneticFieldSpec(
            profile=self.magnetic_profile, amplitude=self.magnetic_amplitude
        )

    @property
    def n_steps(self) -> int:
        return _step_count(self.horizon, self.dt, "horizon")


_SCHEMA: dict[str, dict[str, str]] = {
    "grid": {"n_dim": "n_dim", "cells": "cells", "lengths": "lengths"},
    "time": {"dt": "dt", "horizon": "horizon", "scheme": "scheme"},
    "physics": {"eps": "eps", "q": "q"},
    "velocity_noise": {
        "kind": "noise_kind",
        "sigma": "sigma",
        "decay_exponent": "decay_exponent",
        "mode_count": "mode_count",
        "clip": "clip",
    },
    "magnetic": {
        "profile": "magnetic_profile",
        "amplitude": "magnetic_amplitude",
    },
    "initial": {
        "velocity": "velocity_profile",
        "velocity_amplitude": "velocity_amplitude",
        "director": "director_profile",
        "director_amplitude": "director_amplitude",
    },
    "picard": {
        "window": "window",
        "tolerance": "tolerance",
        "max_iterations": "max_iterations",
        "truncation_radius": "truncation_radius",
    },
    "stopping": {"thresholds": "thresholds"},
    "diagnostics": {
        "record_every": "record_every",
        "freeze_velocity": "freeze_velocity",
        "director_diffusion": "director_diffusion",
        "enable_penalty": "enable_penalty",
        "enable_transport": "enable_transport",
    },
    "output": {"snapshot_every": "snapshot_every"},
    "run": {"seed": "seed", "trajectories": "trajectories"},
}

_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _convert(raw: str, attr: str, errors: list[str]):
    """raw as the type of attr's default; a tuple's comma- or space-separated
    parts each take the type of the default's first item."""
    default = getattr(SimConfig, attr)
    many = isinstance(default, tuple)
    kind = type(default[0]) if many else type(default)
    raw = raw.strip()
    parts = raw.replace(",", " ").split() if many else [raw]
    try:
        vals = [_BOOL[p.lower()] if kind is bool else kind(p) for p in parts]
    except (KeyError, ValueError):
        errors.append(f"{attr}: cannot parse {raw!r} as {type(default).__name__}")
        return None
    return tuple(vals) if many else vals[0]


def parse_config(text: str) -> SimConfig:
    """Parse sectioned key=value text into a SimConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser spreads its message over several lines; keep it on one
        raise ConfigError("config syntax: " + " ".join(str(exc).split())) from exc

    errors: list[str] = []
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key {key!r} in [{section}]")
                continue
            attr = _SCHEMA[section][key]
            val = _convert(raw, attr, errors)
            if val is not None:
                values[attr] = val

    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))

    return SimConfig(**values)


def parse_config_file(path) -> SimConfig:
    with open(path, "r") as f:
        return parse_config(f.read())


def _step_count(span: float, dt: float, name: str) -> int:
    """span/dt as a whole number of steps >= 1, or ConfigError.  The ratio may
    miss an integer by rounding (0.1/0.004 is 25.000000000000004), so 1e-9
    relative slack is allowed."""
    ratio = span / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise ConfigError(f"{name}/dt must be an integer >= 1, got {ratio!r}")
    return n


def validate(cfg: SimConfig) -> None:
    """Check every constraint; raise one ConfigError aggregating all violations."""
    errors: list[str] = []
    if cfg.n_dim not in (2, 3):
        errors.append(f"n_dim must be 2 or 3, got {cfg.n_dim}")
    else:
        try:
            cfg.grid()
        except ValueError as exc:
            errors.append(str(exc))
        else:
            modes = cfg.n_dim * math.prod(cfg.cells)
            if cfg.mode_count > modes:
                errors.append(f"mode_count must be at most {modes} on this grid, "
                              f"got {cfg.mode_count}")
    # NaN passes every `x < bound` check below and inf every `x > 0.0` one;
    # only thresholds may be inf, the "never halt" setting
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        xs = [x for x in (value if isinstance(value, tuple) else (value,))
              if isinstance(x, float)]
        if any(math.isnan(x) for x in xs):
            errors.append(f"{f.name} must not be NaN")
        elif f.name != "thresholds" and not all(math.isfinite(x) for x in xs):
            errors.append(f"{f.name} must be finite, got {_format(value)}")
    if not cfg.dt > 0.0:
        errors.append(f"dt must be positive, got {cfg.dt}")
    if not cfg.horizon > 0.0:
        errors.append(f"horizon must be positive, got {cfg.horizon}")
    elif cfg.dt > 0.0:
        try:
            _step_count(cfg.horizon, cfg.dt, "horizon")
        except ConfigError as exc:
            errors.append(str(exc))
    if cfg.scheme not in ("em", "picard"):
        errors.append(f"scheme must be em or picard, got {cfg.scheme!r}")
    if not cfg.eps > 0.0:
        errors.append(f"eps must be positive, got {cfg.eps}")
    if cfg.q < 2.0:
        errors.append(f"q must be at least 2, got {cfg.q}")
    try:
        cfg.noise_spec()
    except ConfigError as exc:
        errors.append(str(exc))
    try:
        cfg.magnetic_spec()
    except ConfigError as exc:
        errors.append(str(exc))
    if cfg.velocity_profile not in ("zero", "taylor_vortex"):
        errors.append(f"unknown velocity profile {cfg.velocity_profile!r}")
    if cfg.director_profile not in ("uniform", "twist"):
        errors.append(f"unknown director profile {cfg.director_profile!r}")
    if not 0.0 < cfg.director_amplitude <= 1.0:
        errors.append("director_amplitude must lie in (0, 1]")
    if cfg.velocity_amplitude < 0.0:
        errors.append("velocity_amplitude must be nonnegative")
    if not cfg.window > 0.0:
        errors.append(f"picard window must be positive, got {cfg.window}")
    elif cfg.scheme == "picard" and cfg.dt > 0.0:
        try:
            _step_count(cfg.window, cfg.dt, "picard window")
        except ConfigError as exc:
            errors.append(str(exc))
    if not cfg.tolerance > 0.0:
        errors.append("picard tolerance must be positive")
    if cfg.max_iterations < 1:
        errors.append("picard max_iterations must be at least 1")
    if not cfg.truncation_radius > 0.0:
        errors.append("truncation_radius must be positive")
    if not cfg.thresholds or any(k <= 0.0 for k in cfg.thresholds):
        errors.append("thresholds must be positive")
    elif list(cfg.thresholds) != sorted(cfg.thresholds):
        errors.append("thresholds must be ascending")
    if cfg.record_every < 1:
        errors.append("record_every must be at least 1")
    if cfg.snapshot_every < 0:
        errors.append("snapshot_every must be nonnegative")
    if not 0 <= cfg.seed < 2**64:
        errors.append(f"seed must be an integer in [0, 2**64), got {cfg.seed}")
    if cfg.trajectories < 1:
        errors.append("trajectories must be at least 1")
    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_format(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_text(cfg: SimConfig) -> str:
    """Canonical full serialization; parse_config(to_text(cfg)) == cfg."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, attr in keys.items():
            out.write(f"{key} = {_format(getattr(cfg, attr))}\n")
        out.write("\n")
    return out.getvalue()
