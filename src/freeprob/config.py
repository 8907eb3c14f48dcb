"""The package's numeric cutoffs and sizes, written once.

TOL holds the shared tolerances and SIZE the default grid sizes and sampling
budgets.  Both are frozen instances that each module imports by value, so
nothing changes them at run time.  require_fits refuses, before allocating,
any input whose largest array would pass MAX_SYSTEM_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    # measure construction and serialization
    mass_atol: float = 1e-12
    # functional inversion of the moment transform
    bracket_delta: float = 1e-9
    # radial CDF normalization
    cdf_end_atol: float = 1e-12
    # rank / membership decisions in linear-algebra routines
    rank_rtol: float = 1e-9
    gap_flag_ratio: float = 10.0
    # residual ceilings for structural identities
    invariance_atol: float = 1e-9
    # eigenvalue clustering when extracting eigenspaces of commutant elements
    cluster_rtol: float = 1e-7


@dataclass(frozen=True)
class Sizing:
    # number of radial CDF samples the radial recipe stores
    cdf_samples: int = 2049
    # quantile-map evaluation grid behind the radial recipe
    quantile_grid: int = 8192
    # default Brown-field grid
    grid_nx: int = 256
    grid_ny: int = 256
    # default regularization scale: epsilon = epsilon_scale * ||T||^2
    epsilon_scale: float = 1e-6
    # orbit-sampling budget for the multi-vector transitivity test
    orbit_tuples: int = 32
    # random commutant combinations fed to subspace discovery
    commutant_draws: int = 3


TOL = Tolerances()
SIZE = Sizing()

# inputs whose largest array would pass this size are refused up front
MAX_SYSTEM_BYTES = 256 * 2**20


def require_fits(need: int, what: str) -> None:
    if need > MAX_SYSTEM_BYTES:
        # MiB rounded up to 0.1, so a need past the cap never reads as equal to it
        tenths = -(-10 * need // 2**20)
        raise DomainError(
            f"{what} needs {tenths / 10:.1f} MiB, above the {MAX_SYSTEM_BYTES / 2**20:g} MiB cap"
        )
