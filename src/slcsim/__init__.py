"""Stochastic nematic liquid-crystal hydrodynamics at desk scale.

A coupled velocity/director system with Ginzburg-Landau penalization,
fluctuating forcing, and the verification instruments (operator identities,
energy records, stopping times, fixed-point machinery) needed to check its
structure mechanically.
"""

__version__ = "0.1.0"

from .config import SimConfig, parse_config, parse_config_file, to_text
from .errors import ConfigError, DomainError
from .fields import State, read_snapshot, write_snapshot
from .grid import Grid, build_grid
from .integrators import run_trajectory
from .noise import BrownianPath, refine, sample_path

__all__ = [
    "__version__",
    "SimConfig",
    "parse_config",
    "parse_config_file",
    "to_text",
    "ConfigError",
    "DomainError",
    "State",
    "read_snapshot",
    "write_snapshot",
    "Grid",
    "build_grid",
    "run_trajectory",
    "BrownianPath",
    "refine",
    "sample_path",
]
