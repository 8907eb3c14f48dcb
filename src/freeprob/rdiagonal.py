"""Brown measures of Haar-rotated positive operators and a closed-form catalog.

For U Haar unitary free from a positive H whose distribution mu_H is not a
point mass, the Brown measure of UH is rotation invariant: it carries the
atom mu_H({0}) at the origin, lives on the annulus between 1/||H^-1||_2 and
||H||_2, and the closed ball of radius S_{mu_{H^2}}(t - 1)^{-1/2} has mass
exactly t for t in (mu_H({0}), 1].  brown_rdiagonal turns that quantile
description into a sampled radial CDF.

The catalog lists the five operators built from two free copies of the 2x2
matrix algebra that the rest of the package simulates.  Catalog ground truth
is the ball-mass form F(r); a planar density, where wanted, is
F'(r) / (2 pi r).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .errors import DiracInputError, DomainError, MeasureFormatError
from .measures import ScalarMeasure, chi_vector, moment

__all__ = [
    "CATALOG",
    "Law",
    "OperatorTag",
    "RadialPlanarMeasure",
    "SUPPORT_MARGIN",
    "brown_rdiagonal",
    "catalog_brown",
    "pullback_radii",
    "conditional_cdf",
]

SQRT_HALF = 1.0 / math.sqrt(2.0)

# how far a radial CDF may step down or end away from one
CDF_END_ATOL = 1e-12
# radial CDF samples the radial recipe stores, and the quantile-map grid
# it inverts to get them
CDF_SAMPLES = 2049
QUANTILE_GRID = 8192


class OperatorTag(str, enum.Enum):
    """Operators with catalogued Brown measures, named by their factors."""

    W1F12 = "W1F12"
    E12_plus_F12 = "E12_plus_F12"
    E12_plus_F12_squared = "E12_plus_F12_squared"
    W1_plus_F12_squared = "W1_plus_F12_squared"
    W1_plus_F12 = "W1_plus_F12"


def _pchip(r: np.ndarray, f: np.ndarray):
    """Monotone cubic F(r), built on r over a power of two: the division is
    exact, and keeps the divided differences of radii near 1e-100 from
    overflowing.  scipy.interpolate is imported here, not at module level: it
    is most of the package's import time, and only the radial recipe reads
    it."""
    from scipy.interpolate import PchipInterpolator

    unit = math.ldexp(1.0, math.frexp(float(r[-1]))[1])
    spline = PchipInterpolator(r / unit, f, extrapolate=False)
    return lambda x: spline(x / unit)


@dataclass(frozen=True)
class RadialPlanarMeasure:
    """Rotation-invariant planar probability measure about 0 stored as a radial CDF.

    The radial recipe's sampled output: cumulative[i] is the mass of the
    closed ball of radius radii[i] about 0 (the atom at 0 included), read by
    a monotone piecewise cubic.  center_atom_mass, support_outer and cdf
    mean what they mean on a catalog Law.
    """

    center_atom_mass: float
    radii: np.ndarray
    cumulative: np.ndarray
    support_inner: float
    support_outer: float

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        cum = np.asarray(self.cumulative, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "cumulative", cum)
        if radii.shape != cum.shape or radii.ndim != 1 or radii.size == 0:
            raise MeasureFormatError("radial CDF needs matching 1-d sample arrays")
        if np.any(np.diff(radii) < 0) or np.any(np.diff(cum) < -CDF_END_ATOL):
            raise MeasureFormatError("radial CDF samples must be monotone")
        if abs(cum[-1] - 1.0) > CDF_END_ATOL:
            raise MeasureFormatError(f"radial CDF must end at 1, got {cum[-1]!r}")
        if (
            self.support_inner < self.support_outer
            and radii[0] <= self.support_inner
            and abs(cum[0] - self.center_atom_mass) > 1e-9
        ):
            raise MeasureFormatError(
                "cumulative mass at the inner edge must equal the center atom mass"
            )
        if not self.support_inner <= self.support_outer:
            raise MeasureFormatError("support_inner must not exceed support_outer")

    @cached_property
    def _interpolant(self):
        r, idx = np.unique(self.radii, return_index=True)
        return _pchip(r, self.cumulative[idx])

    def cdf(self, r) -> np.ndarray | float:
        """Mass of the closed ball (in the stored radial coordinate)."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.full_like(r, np.nan)
        below = r < self.radii[0]
        above = r >= self.radii[-1]
        mid = (r >= self.radii[0]) & (r < self.radii[-1])
        out[below] = self.center_atom_mass
        out[above] = self.cumulative[-1]
        # NaN lies in no range and stays NaN
        out[mid] = np.clip(self._interpolant(r[mid]), 0.0, 1.0)
        return float(out[0]) if scalar else out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        atom = self.center_atom_mass
        payload = {
            "center": [0.0, 0.0],
            "atoms": [[0.0, 0.0, atom]] if atom > 0.0 else [],
            "cdf": [[float(r), float(f)] for r, f in zip(self.radii, self.cumulative)],
            "support": [self.support_inner, self.support_outer],
        }
        return json.dumps(payload)

    def cdf_csv_rows(self) -> list[tuple[float, float]]:
        """(r, F) rows on the grid k * step covering the support.

        step is the power of two above support_outer over 1024, so the
        row count does not grow with scale and round radii like 0.5 stay exact
        in the exported file; the exact support endpoints are appended.
        """
        step = math.ldexp(1.0, math.frexp(self.support_outer)[1]) / 1024
        k0 = math.ceil(self.support_inner / step)
        k1 = math.floor(self.support_outer / step)
        rs = [k * step for k in range(k0, k1 + 1)]
        if not rs or rs[0] > self.support_inner:
            rs.insert(0, self.support_inner)
        if rs[-1] < self.support_outer:
            rs.append(self.support_outer)
        return [(float(r), float(self.cdf(r))) for r in rs]


# -- the catalog -------------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """A catalogued Brown measure and the operator it belongs to.

    coordinate maps eigenvalues to the stored radius about the law's
    center; ball is the closed-ball mass on [0, support_outer] in that
    coordinate; realize builds the operator from a matrix model's named
    factors (model.factor); spectrum gives the realization's 2n eigenvalues
    from the model's n x n block eigensolves, never forming the 2n x 2n one.
    """

    center_atom_mass: float
    support_outer: float
    coordinate: Callable[[np.ndarray], np.ndarray]
    ball: Callable[[np.ndarray], np.ndarray]
    realize: Callable[[Any], np.ndarray]
    spectrum: Callable[[Any], np.ndarray]

    def cdf(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inside = self.ball(np.clip(r, 0.0, self.support_outer))
        return np.where(r < 0.0, 0.0, np.where(r >= self.support_outer, 1.0, inside))


def _about(center: complex) -> Callable[[np.ndarray], np.ndarray]:
    return lambda z: np.abs(z - center)


def _square(s: np.ndarray) -> np.ndarray:
    return s @ s


# r^2 / (1 - r^2) is the law of E12 + F12, of the squared shifted sum about
# 1, and of the unsquared shifted sum in the coordinate |z^2 - 1|
def _nilpotent_ball(r):
    return r**2 / (1.0 - r**2)


def _plus_minus(v: np.ndarray) -> np.ndarray:
    return np.concatenate((v, -v))


def _twice(v: np.ndarray) -> np.ndarray:
    return np.concatenate((v, v))


# center atom mass, outer radius, coordinate, ball mass, realization, block
# spectrum from the model's reflected (mu) and nilpotent (nu) eigenvalues
CATALOG: dict[OperatorTag, Law] = {
    OperatorTag.W1F12: Law(
        0.5, SQRT_HALF, _about(0j), lambda r: 1.0 / (2.0 * (1.0 - r**2)),
        # eig(M) and the kernel of rank-n F12 as n exact zeros
        lambda m: m.factor("W1") @ m.factor("F12"), lambda m: np.pad(m.reflected_eigenvalues, (0, m.half_dim)),
    ),
    OperatorTag.E12_plus_F12: Law(
        0.0, SQRT_HALF, _about(0j), _nilpotent_ball,
        lambda m: m.factor("E12") + m.factor("F12"), lambda m: _plus_minus(np.sqrt(m.nilpotent_eigenvalues)),
    ),
    OperatorTag.E12_plus_F12_squared: Law(
        0.0, 0.5, _about(0j), lambda r: r / (1.0 - r),
        lambda m: _square(m.factor("E12") + m.factor("F12")), lambda m: _twice(m.nilpotent_eigenvalues),
    ),
    OperatorTag.W1_plus_F12_squared: Law(
        0.0, SQRT_HALF, _about(1.0 + 0j), _nilpotent_ball,
        lambda m: _square(m.factor("W1") + m.factor("F12")), lambda m: _twice(1.0 + m.reflected_eigenvalues),
    ),
    # not radial about any center: stored in the coordinate |z^2 - 1|, the
    # pullback of the squared law, which vanishes at +-1
    OperatorTag.W1_plus_F12: Law(
        0.0, SQRT_HALF, lambda z: np.abs(z * z - 1.0), _nilpotent_ball,
        lambda m: m.factor("W1") + m.factor("F12"), lambda m: _plus_minus(np.sqrt(1.0 + m.reflected_eigenvalues)),
    ),
}


# how far past a law's outer radius a finite-dimensional eigenvalue may sit
# before it counts as a support violation
SUPPORT_MARGIN = 0.05


def catalog_brown(tag: OperatorTag | str) -> Law:
    """Closed-form Brown measure for a catalogued operator."""
    return CATALOG[OperatorTag(tag)]


def pullback_radii(tag: OperatorTag | str, values: np.ndarray) -> np.ndarray:
    """Map sampled eigenvalues to the radial coordinate of the catalog law."""
    return CATALOG[OperatorTag(tag)].coordinate(np.asarray(values, dtype=complex))


def conditional_cdf(measure: RadialPlanarMeasure | Law):
    """CDF of the measure conditioned on not sitting in the center atom."""
    a = measure.center_atom_mass
    if a >= 1.0:
        raise DomainError("conditional law undefined: all mass sits in the atom")

    def cdf(r):
        return (np.asarray(measure.cdf(r), dtype=float) - a) / (1.0 - a)

    return cdf


# -- the radial recipe -----------------------------------------------------


def brown_rdiagonal(mu_h: ScalarMeasure) -> RadialPlanarMeasure:
    """Brown measure of U H for U Haar unitary free from positive H ~ mu_h.

    The output is rotation invariant about 0: an atom mu_h({0}) at the
    origin and the radial CDF, CDF_SAMPLES samples of it, obtained by
    inverting the quantile map r(t) = S_{mu_{H^2}}(t - 1)^{-1/2}.  A point
    mass, where that map degenerates, is refused.
    """
    if mu_h.is_dirac:
        raise DiracInputError("the radial recipe needs a non-degenerate distribution")

    atom = mu_h.mass_at(0.0)
    outer = math.sqrt(moment(mu_h, 2))
    # int t^-2 dmu is inf, so the inner radius 0, when mass touches zero
    inner = 1.0 / math.sqrt(mu_h.inverse_square_moment())

    # quantile map on a grid strongly graded toward t = atom, where the
    # radius approaches the inner edge and the CDF starts out flat; the
    # offset floor keeps chi evaluation away from the psi(-inf) cancellation
    u = np.linspace(0.0, 1.0, QUANTILE_GRID + 1)[1:]
    t = atom + (1.0 - atom) * np.maximum(u**4, 1e-10)
    t[-1] = 1.0
    w = t[:-1] - 1.0
    z = chi_vector(mu_h, w, squared=True)
    s_vals = z * (1.0 + w) / w
    if np.any(s_vals <= 0.0):
        raise DomainError("S-transform came out nonpositive; measure outside scope")
    r_dense = np.empty_like(t)
    r_dense[:-1] = s_vals**-0.5
    r_dense[-1] = outer
    f_dense = t

    # strictly increasing radii for interpolation (solver noise at the far
    # inner edge can reorder near-equal radii)
    running = np.maximum.accumulate(r_dense)
    keep = np.concatenate(([True], r_dense[1:] > running[:-1]))
    r_dense, f_dense = r_dense[keep], f_dense[keep]
    # of a run of radii within 2^-300 outer radii of the next, the last
    # stands for the run: PCHIP's cubic coefficients grow as the inverse cube
    # of a gap and pass the double range below about 2^-341 outer radii
    keep = np.append(np.diff(r_dense) > outer * 2.0**-300, True)
    r_dense, f_dense = r_dense[keep], f_dense[keep]

    # sample radii clustered quadratically at both support edges: monotone
    # cubic reconstruction loses accuracy exactly where the CDF flattens out
    v = np.linspace(0.0, 1.0, CDF_SAMPLES)
    rs = inner + (outer - inner) * 0.5 * (1.0 - np.cos(np.pi * v))
    fs = np.empty_like(rs)
    inside = (rs >= r_dense[0]) & (rs <= r_dense[-1])
    fs[inside] = _pchip(r_dense, f_dense)(rs[inside])
    # below the first dense sample the CDF runs linearly into the anchor
    low = rs < r_dense[0]
    if low.any():
        r0, f0 = r_dense[0], f_dense[0]
        frac = (rs[low] - inner) / (r0 - inner) if r0 > inner else 0.0
        fs[low] = atom + (f0 - atom) * frac
    fs[rs > r_dense[-1]] = 1.0
    fs = np.maximum.accumulate(np.clip(fs, atom, 1.0))
    fs[0] = atom
    fs[-1] = 1.0

    return RadialPlanarMeasure(
        center_atom_mass=atom,
        radii=rs,
        cumulative=fs,
        support_inner=inner,
        support_outer=outer,
    )
