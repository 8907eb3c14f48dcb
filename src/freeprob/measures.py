"""Probability measures on [0, inf) and their multiplicative transforms.

A measure is a finite list of atoms plus an optional piecewise-linear
density, total mass one; every integral against the density (mass,
moments, psi) is exact on its linear pieces.  The moment transform

    psi(z) = int t z / (1 - t z) dmu(t)

is taken on z <= 0 only, the half-line the S-transform reads: there it
has no pole and increases from mu({0}) - 1 at -inf to psi(0) = 0.  chi
denotes its inverse, from (mu({0}) - 1, 0] onto (-inf, 0], and the
S-transform is S(w) = chi(w) (1 + w) / w, extended continuously by
S(0) = 1/mean.  For a measure supported on {0, a} or on two atoms these
have closed forms; the numeric path is one vectorized bisection,
chi_vector, run to float spacing; with squared=True it inverts psi of the
law of t^2, as the radial recipe needs.
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
    "chi_inverse",
    "chi_vector",
    "s_transform",
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


def _density_moment(measure: ScalarMeasure, k: int, scale: float = 1.0) -> float:
    """Exact int (t / scale)^k f(t) dt over the density's linear pieces."""
    x0, x1, alpha, beta = measure.segments
    u0, u1 = x0 / scale, x1 / scale
    p, q = k + 1, k + 2
    return float(scale * np.sum(alpha * (u1**p - u0**p) / p + beta * scale * (u1**q - u0**q) / q))


def moment(measure: ScalarMeasure, k: int) -> float:
    """k-th moment int t^k dmu(t); moment(mu, 0) is exactly 1.  An atom so
    far out that its t^k passes the double range is refused."""
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
    return atoms + _density_moment(measure, k)


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
    """psi(z) = int t z / (1 - t z) dmu(t) for z <= 0."""
    z = float(z)
    if not z <= 0.0:
        raise DomainError(f"psi is taken at z <= 0 only, got z = {z}")
    return float(_psi_raw(measure, np.array([z]))[0])


# -- chi ------------------------------------------------------------------


def _psi_lower_limit(measure: ScalarMeasure) -> float:
    """lim_{z -> -inf} psi(z) = mu({0}) - 1."""
    return measure.mass_at(0.0) - 1.0


def _chi_closed(measure: ScalarMeasure, y: float) -> float:
    """Exact inverse at y in (mu({0}) - 1, 0) for purely atomic measures
    with at most two atoms."""
    atoms = measure.atoms
    if len(atoms) == 1:
        c, _ = atoms[0]
        return y / (c * (1.0 + y))
    (a, am), (b, bm) = atoms
    if a == 0.0:
        return y / (b * (y + bm))
    # a b (y+1) z^2 - (y (a+b) + mean) z + y = 0; its roots multiply to
    # y / (a b (y+1)) < 0, and chi(y) is the negative one
    a2 = a * b * (y + 1.0)
    a1 = -(y * (a + b) + (am * a + bm * b))
    q = -(a1 + math.copysign(math.sqrt(a1 * a1 - 4.0 * a2 * y), a1)) / 2.0
    return min(q / a2, y / q)


def chi_inverse(measure: ScalarMeasure, y: float, method: str = "auto") -> float:
    """Inverse of psi on z <= 0, at y in (mu({0}) - 1, 0].

    method 'auto' uses the closed form for purely atomic measures with at
    most two atoms and falls back to chi_vector's bisection; 'closed' and
    'numeric' force one path (criterion 1 compares the two).
    """
    y = float(y)
    if method not in ("auto", "closed", "numeric"):
        raise DomainError(f"unknown chi method {method!r}")
    closed_ok = not measure.density and len(measure.atoms) <= 2
    if method == "closed" and not closed_ok:
        raise DomainError("closed-form chi needs at most two atoms and no density")
    lower = _psi_lower_limit(measure)
    if not lower < y <= 0.0:
        raise DomainError(f"y = {y} lies outside ({lower}, 0], the range of psi on z <= 0")
    if y == 0.0:
        return 0.0
    if method == "closed" or (method == "auto" and closed_ok):
        return _chi_closed(measure, y)
    return float(chi_vector(measure, np.array([y]))[0])


# halvings that take any bracket within the doubles (widths 2^1024 down to
# the subnormal spacing 2^-1074) to float spacing, with room to spare
BISECTION_STEPS = 2200


def chi_vector(measure: ScalarMeasure, ys: np.ndarray, squared: bool = False) -> np.ndarray:
    """Numeric chi on z < 0, one bisection for all arguments.

    Each y must lie in (mu({0}) - 1, 0).  It is bracketed by [lo, 0], lo
    doubling from about -1/max_support (-1/max_support^2 when squared)
    until psi(lo) <= y, and the bracket is bisected to float spacing.  The
    radial recipe inverts thousands of points in one call, with
    squared=True for the law of t^2; chi_inverse's numeric route is a
    one-element call.
    """
    ys = np.asarray(ys, dtype=float)
    lower = _psi_lower_limit(measure)
    for y in ys[~((lower < ys) & (ys < 0.0))]:
        raise DomainError(f"y = {y} lies outside ({lower}, 0), the range of psi on z < 0")
    # psi reads z as z t (z t^2 if squared): lo starts at -2^k, 2^k <= 1/scale
    # < 2^(k+1), a power of two so the bisection visits the points it does from -1
    scale = measure.max_support**2 if squared else measure.max_support
    lo = np.full_like(ys, -(2.0 ** min(-math.frexp(scale)[1], 1000)))
    hi = np.zeros_like(ys)
    # double until psi(lo) <= y, or until lo, a power of two, would leave the
    # doubles: an atom too near 0 for t^2 lo to come far from 0 keeps psi
    # above mu({0}) - 1
    while (mask := _psi_raw(measure, lo, squared) > ys).any():
        if np.any(lo[mask] == -(2.0**1023)):
            raise DomainError("psi stays above some arguments over the whole double range")
        lo[mask] *= 2.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        if done.all():
            break
        below = _psi_raw(measure, mid, squared) < ys
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    else:
        raise DomainError(
            f"chi_vector bisection did not reach float spacing in {BISECTION_STEPS} steps"
        )
    return 0.5 * (lo + hi)


# -- S-transform ----------------------------------------------------------


def s_transform(measure: ScalarMeasure, w: float, method: str = "auto") -> float:
    """S(w) = chi(w) (1 + w) / w on (mu({0}) - 1, 0), with S(0) = 1/mean.

    Strictly decreasing on its domain for every non-Dirac measure.
    """
    w = float(w)
    if w == 0.0:
        mean = moment(measure, 1)
        if mean <= 0.0:
            raise DomainError("S(0) = 1/mean needs a measure with positive mean")
        return 1.0 / mean
    lower = _psi_lower_limit(measure)
    if not lower < w < 0.0:
        raise DomainError(f"S-transform argument {w} outside ({lower}, 0]")
    z = chi_inverse(measure, w, method)
    return z * (1.0 + w) / w
