"""Probability measures on [0, inf) and their moment transform.

A measure is a finite list of atoms plus an optional piecewise-linear
density, total mass one; every integral against the density (mass,
moments, psi) is exact on its linear pieces.  The moment transform

    psi(z) = int t z / (1 - t z) dmu(t)

is taken on z <= 0 only, the half-line the S-transform reads: there it
has no pole and increases from mu({0}) - 1 at -inf to psi(0) = 0.  Nothing
inverts it: at w = psi(z) the S-transform is (1 + w) z / w, so a grid of z
gives exact points of S.  _psi_raw(..., squared=True) gives psi of the law
of t^2, which the radial recipe reads the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, MeasureFormatError

__all__ = [
    "ScalarMeasure",
    "moment",
    "psi_transform",
]

# how far from one a measure's total mass may be
MASS_ATOL = 1e-12


@dataclass(frozen=True)
class ScalarMeasure:
    """Probability measure on [0, inf): atoms plus optional sampled density.

    atoms: (location, mass) pairs, sorted strictly increasing on construction;
    equal locations are merged.  density: (x, f(x)) samples interpreted as a
    piecewise-linear density, integrated exactly on each linear piece.  Total
    mass must equal one within MASS_ATOL.
    """

    atoms: tuple[tuple[float, float], ...]
    density: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        cleaned: dict[float, float] = {}
        for loc, mass in self.atoms:
            loc = float(loc)
            mass = float(mass)
            if not math.isfinite(loc) or loc < 0.0:
                raise MeasureFormatError(f"atom location must be finite and >= 0, got {loc}")
            if not 0.0 < mass <= 1.0:
                raise MeasureFormatError(f"atom mass must lie in (0, 1], got {mass}")
            cleaned[loc] = cleaned.get(loc, 0.0) + mass
        object.__setattr__(self, "atoms", tuple(sorted(cleaned.items())))

        dens = tuple((float(x), float(f)) for x, f in self.density)
        if not all(math.isfinite(x) and math.isfinite(f) for x, f in dens):
            raise MeasureFormatError("density samples must be finite")
        xs = [x for x, _ in dens]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise MeasureFormatError("density grid must be strictly increasing")
        if any(x < 0.0 for x in xs):
            raise MeasureFormatError("density support must lie in [0, inf)")
        if any(f < 0.0 for _, f in dens):
            raise MeasureFormatError("density values must be nonnegative")
        if len(dens) == 1:
            raise MeasureFormatError("a density needs at least two samples")
        object.__setattr__(self, "density", dens)

        total = sum(m for _, m in self.atoms) + _density_moment(self, 0)
        if not abs(total - 1.0) <= MASS_ATOL:
            raise MeasureFormatError(f"total mass is {total!r}, expected 1 within {MASS_ATOL}")

    # -- basic structure -------------------------------------------------

    @cached_property
    def segments(self) -> tuple[np.ndarray, ...]:
        """Read-only (x0, x1, alpha, beta): f(t) = alpha + beta t on each [x0, x1]."""
        xs, fs = np.array(self.density, dtype=float).reshape(-1, 2).T
        beta = np.diff(fs) / np.diff(xs)
        table = (xs[:-1], xs[1:], fs[:-1] - beta * xs[:-1], beta)
        for arr in table:
            arr.flags.writeable = False
        return table

    def mass_at(self, loc: float) -> float:
        """Atom mass sitting exactly at loc (0.0 when there is none)."""
        for x, m in self.atoms:
            if x == loc:
                return m
        return 0.0

    @property
    def max_support(self) -> float:
        hi = self.atoms[-1][0] if self.atoms else 0.0
        if self.density:
            hi = max(hi, self.density[-1][0])
        return hi

    @property
    def is_dirac(self) -> bool:
        return not self.density and len(self.atoms) == 1

    def inverse_square_moment(self) -> float:
        """int t^-2 dmu(t); inf when there is mass at (or touching) zero.  An
        atom so near zero that its t^-2 passes the double range is refused."""
        if self.mass_at(0.0) > 0.0:
            return math.inf
        x0, x1, alpha, beta = self.segments
        # diverges on a nonzero piece from 0, even one that vanishes linearly
        if np.any((x0 == 0.0) & ((alpha != 0.0) | (beta != 0.0))):
            return math.inf
        try:
            total = sum(m / t**2 for t, m in self.atoms)
        except ZeroDivisionError:
            total = math.inf
        if total == math.inf:
            raise DomainError(
                f"an atom at {self.atoms[0][0]:.3g} puts int t^-2 dmu past the double range"
            )
        x0, x1, alpha, beta = (a[x0 > 0.0] for a in (x0, x1, alpha, beta))
        pieces = alpha * (x1 - x0) / (x0 * x1) + beta * np.log(x1 / x0)
        return total + float(pieces.sum())

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "atoms": [[loc, mass] for loc, mass in self.atoms],
            "density": [[x, f] for x, f in self.density],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ScalarMeasure":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "atoms" not in payload:
            raise MeasureFormatError("measure JSON must be an object with an 'atoms' key")
        atoms = payload["atoms"]
        density = payload.get("density", [])
        try:
            return cls(
                tuple((float(a), float(b)) for a, b in atoms),
                tuple((float(a), float(b)) for a, b in density),
            )
        except (TypeError, ValueError) as exc:
            raise MeasureFormatError(f"malformed measure entries: {exc}") from exc


# -- moments --------------------------------------------------------------


def _density_moment(measure: ScalarMeasure, k: int, scale: float | None = None) -> float:
    """Exact int (t / scale)^k f(t) dt over the density's linear pieces.  With
    no scale, int t^k f(t) dt read on the power-of-two scale of the support's
    end: that is exact and keeps the powers of the pieces inside the double
    range, so only the result can pass it (OverflowError)."""
    if scale is None:
        if not measure.density:
            return 0.0
        e = math.frexp(measure.density[-1][0])[1] - 1
        return math.ldexp(_density_moment(measure, k, math.ldexp(1.0, e)), k * e)
    x0, x1, alpha, beta = measure.segments
    u0, u1 = x0 / scale, x1 / scale
    p, q = k + 1, k + 2
    return float(scale * np.sum(alpha * (u1**p - u0**p) / p + beta * scale * (u1**q - u0**q) / q))


def moment(measure: ScalarMeasure, k: int) -> float:
    """k-th moment int t^k dmu(t); moment(mu, 0) is exactly 1.  An atom or a
    density so far out that its part passes the double range is refused."""
    if k < 0:
        raise DomainError("moment order must be a nonnegative integer")
    if k == 0:
        return 1.0
    try:
        atoms = sum(m * t**k for t, m in measure.atoms)
    except OverflowError:
        raise DomainError(
            f"an atom at {measure.atoms[-1][0]:.3g} puts moment {k} past the double range"
        ) from None
    try:
        return atoms + _density_moment(measure, k)
    except OverflowError:
        raise DomainError(
            f"a density reaching {measure.density[-1][0]:.3g} puts moment {k} past the double range"
        ) from None


# -- psi ------------------------------------------------------------------

# below |u| = SERIES_CUT, u = z x_max^p, the closed forms cancel and psi is
# summed as its series in u to u^16; the dropped tail is below 0.05^17 ~ 1e-22
SERIES_CUT = 0.05


def _psi_raw(measure: ScalarMeasure, z: np.ndarray, squared: bool = False) -> np.ndarray:
    """Vector psi with no domain policing; callers keep z <= 0.

    squared=True gives psi of the law of t^2.  The density's part is exact
    on each piece f = alpha + beta t, and summed by parts it takes one
    transcendental per node: sum_s alpha_s (F(x_s+1) - F(x_s)) equals
    sum_i F(x_i) (alpha_i-1 - alpha_i), with alpha = 0 off the support.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for t, m in measure.atoms:
        if squared:
            t = t * t
        if t == 0.0:
            continue
        out = out + m * t * z / (1.0 - t * z)
    if not measure.density:
        return out
    p = 2 if squared else 1
    x0, x1, alpha, beta = measure.segments
    u = z * x1[-1] ** p
    series = np.abs(u) < SERIES_CUT
    moments = [_density_moment(measure, p * j, x1[-1]) for j in range(16, 0, -1)]
    out[series] += np.polyval(moments + [0.0], u[series])
    zc = z[~series]
    col = zc[:, None]
    nodes = np.append(x0, x1[-1])
    ja, jb = -np.diff((alpha, beta), prepend=0.0, append=0.0)
    if squared:
        # z = -a^2: -mass + alpha / a datan(a t) + beta / (2 a^2) dlog1p(a^2 t^2)
        atans = np.arctan(np.sqrt(-col) * nodes) @ ja
        part = atans / np.sqrt(-zc) - (np.log1p(-col * nodes**2) @ jb) / (2.0 * zc)
    else:
        # 1 - t z > 0: -mass - beta dx / z - (alpha + beta / z) / z dlog1p(-t z)
        logs = np.log1p(-col * nodes)
        part = -(np.sum(beta * (x1 - x0)) + logs @ ja + (logs @ jb) / zc) / zc
    out[~series] += part - _density_moment(measure, 0)
    return out


def psi_transform(measure: ScalarMeasure, z: float) -> float:
    """psi(z) = int t z / (1 - t z) dmu(t) for finite z <= 0."""
    z = float(z)
    if not -math.inf < z <= 0.0:
        raise DomainError(f"psi is taken at finite z <= 0 only, got z = {z}")
    return float(_psi_raw(measure, np.array([z]))[0])

