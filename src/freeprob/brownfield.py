"""Spectral-distribution estimation for non-normal matrices from first principles.

The distribution of a non-normal matrix is recovered from the field
L(lambda) = ln det_eps(T - lambda) evaluated on a rectangular grid, where
det_eps is the regularized normalized determinant built from singular
values.  At epsilon > 0 the product of regularized squared singular values
is det((T - lambda)*(T - lambda) + eps I), read off a Cholesky factor, so
no singular value is computed.  Applying (1/2pi) times the discrete
Laplacian and scaling by the cell area turns the field into per-cell masses
whose total approximates the fraction of spectrum inside the grid.
Everything here is deterministic given the inputs; grid nodes are
independent work items, so results do not depend on the number of worker
threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zpotrf

from .config import SIZE, require_fits
from .errors import DimensionMismatchError, DomainError, EigensolveError, SentinelError

__all__ = [
    "GridSpec",
    "BrownField",
    "default_epsilon",
    "logdet_field",
    "brown_laplacian",
    "mass_in_region",
    "field_csv_text",
    "mass_csv_text",
    "field_metadata",
]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid for the complex plane, with regularization."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = SIZE.grid_nx
    ny: int = SIZE.grid_ny
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(math.isfinite(v) for v in (*bounds, self.epsilon)):
            raise DomainError("grid bounds and epsilon must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("grid bounds must satisfy min < max on both axes")
        if self.nx < 3 or self.ny < 3:
            raise DomainError("grid needs at least 3 nodes per axis")
        if self.epsilon < 0.0:
            raise DomainError("epsilon must be >= 0")

    @classmethod
    def square(
        cls, radius: float, n: int, center: complex = 0j, epsilon: float = 0.0
    ) -> "GridSpec":
        c = complex(center)
        return cls(
            x_min=c.real - radius,
            x_max=c.real + radius,
            y_min=c.imag - radius,
            y_max=c.imag + radius,
            nx=n,
            ny=n,
            epsilon=epsilon,
        )

    @classmethod
    def covering(
        cls,
        points: np.ndarray,
        n: int,
        epsilon: float = 0.0,
    ) -> "GridSpec":
        """Grid around the given complex points, padded on every side by a
        quarter of the larger side of their bounding box."""
        points = np.asarray(points, dtype=complex)
        x0, x1 = float(points.real.min()), float(points.real.max())
        y0, y1 = float(points.imag.min()), float(points.imag.max())
        pad = 0.25 * max(x1 - x0, y1 - y0, 1e-3)
        return cls(
            x_min=x0 - pad,
            x_max=x1 + pad,
            y_min=y0 - pad,
            y_max=y1 + pad,
            nx=n,
            ny=n,
            epsilon=epsilon,
        )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def nodes(self) -> np.ndarray:
        """Complex node values, shape (nx, ny), index [ix, iy]."""
        return self.xs()[:, None] + 1j * self.ys()[None, :]


@dataclass(frozen=True, eq=False)
class BrownField:
    """Log-determinant field and, once differentiated, its cell masses.

    values[ix, iy] holds L at node (x_ix, y_iy).  flagged lists nodes whose
    lambda collided with an eigenvalue and was nudged by half a cell before
    evaluation; sentinels lists nodes that stayed singular even after the
    nudge (their values are -inf and they poison any stencil touching them).
    laplacian_mass is (nx-2) x (ny-2) over interior nodes; noise_floor is an
    a posteriori bound on the discretization error of a single cell mass.
    """

    grid: GridSpec
    values: np.ndarray
    path: str
    flagged: tuple[tuple[int, int], ...] = ()
    sentinels: tuple[tuple[int, int], ...] = ()
    laplacian_mass: np.ndarray | None = None
    noise_floor: float = math.nan

    def total_mass(self) -> float:
        if self.laplacian_mass is None:
            raise DomainError("laplacian not computed; call brown_laplacian first")
        return float(self.laplacian_mass.sum())


def default_epsilon(matrix: np.ndarray) -> float:
    """The standard regularization scale, 1e-6 times the squared 2-norm."""
    return SIZE.epsilon_scale * float(np.linalg.norm(matrix, 2)) ** 2


def _schur_column(
    diag: np.ndarray, xs: np.ndarray, y: float, jitter: complex
) -> tuple[np.ndarray, list[int], list[int]]:
    """One grid row of (1/N) sum ln|u_kk - lambda| with collision handling."""
    lam = xs + 1j * y
    dist = np.abs(diag[None, :] - lam[:, None])
    vals = np.empty(xs.size)
    flagged: list[int] = []
    dead: list[int] = []
    bad = np.any(dist == 0.0, axis=1)
    good = ~bad
    if good.any():
        vals[good] = np.log(dist[good]).sum(axis=1) / diag.size
    for ix in np.nonzero(bad)[0]:
        moved = np.abs(diag - (lam[ix] + jitter))
        flagged.append(int(ix))
        if np.any(moved == 0.0):
            vals[ix] = -math.inf
            dead.append(int(ix))
        else:
            vals[ix] = float(np.log(moved).sum()) / diag.size
    return vals, flagged, dead


def _svd_column(
    matrix: np.ndarray,
    xs: np.ndarray,
    iy: int,
    y: float,
    epsilon: float,
    buf: np.ndarray,
) -> np.ndarray:
    """One grid row of (1/2N) sum ln(sigma_i^2 + eps) via Cholesky in buf.

    With B = T - iyI and lambda = x + iy, the shifted Gram matrix is
    (T - lambda)*(T - lambda) + eps I = B*B - x(B + B*) + (x^2 + eps)I, so
    each batch of buf's length is one product of the coefficients [1, -x]
    against B*B and B + B*, written into buf.  Each Gram matrix is factored
    in place: read in Fortran order the C-ordered Hermitian G is its
    conjugate, whose Cholesky factor has G's real diagonal.  The sum of
    logs is ln det = 2 sum ln L_ii.
    """
    n = matrix.shape[0]
    b = matrix - 1j * y * np.eye(n)
    bh = b.conj().T
    pair = np.stack(((bh @ b).ravel(), (b + bh).ravel()))
    out = np.empty(xs.size)
    for start in range(0, xs.size, buf.shape[0]):
        x = xs[start : start + buf.shape[0]]
        gram = buf[: x.size]
        flat = gram.reshape(x.size, n * n)
        np.matmul(np.stack((np.ones_like(x), -x), axis=1), pair, out=flat)
        flat[:, :: n + 1] += (x**2 + epsilon)[:, None]
        for node in gram:
            # OpenBLAS factors this lower form faster than the upper one
            _, info = zpotrf(node.T, lower=1, overwrite_a=1, clean=0)
            if info > 0:
                raise DomainError(
                    f"epsilon {epsilon:.3e} is below the rounding of the Gram "
                    f"matrix on grid row {iy} (y = {float(y)!r}); use --epsilon 0 "
                    "or a larger epsilon"
                )
        diag = np.diagonal(gram, axis1=1, axis2=2).real
        out[start : start + x.size] = np.log(diag).sum(axis=1) / n
    return out


def logdet_field(
    matrix: np.ndarray,
    grid: GridSpec,
    threads: int = 1,
) -> BrownField:
    """Evaluate the log-determinant field on the grid.

    The kernel follows epsilon.  At epsilon = 0 the "schur" kernel
    triangularizes once and reads eigenvalue distances (exact, and
    O(total nodes x N) afterwards).  At epsilon > 0 the "svd" kernel, named
    for the singular-value formula, builds each grid row's shifted Gram
    matrices from two N x N matrices into a batch buffer of at most 2**22
    Gram entries and factors them there by Cholesky; an epsilon below the
    Gram matrix's rounding leaves a factor undefined and raises DomainError.
    Grid rows are split into one contiguous share per thread, each thread
    reusing one buffer for its share, and written back by index, so the
    result is identical for any thread count.  Before any evaluation, a
    value array or, at epsilon > 0, a row's Gram pair B*B, B + B* past the
    size cap is refused.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
    path = "schur" if grid.epsilon == 0.0 else "svd"
    n = matrix.shape[0]
    require_fits(8 * grid.nx * grid.ny, f"a {grid.nx} x {grid.ny} field")
    if path == "svd":
        require_fits(32 * n * n, f"the Gram pair of a {n} x {n} matrix")

    xs, ys = grid.xs(), grid.ys()
    values = np.empty((grid.nx, grid.ny))
    flagged: list[tuple[int, int]] = []
    sentinels: list[tuple[int, int]] = []

    if path == "schur":
        try:
            tri, _ = scipy.linalg.schur(matrix, output="complex")
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise EigensolveError(f"triangularization failed: {exc}") from exc
        diag = np.diagonal(tri).copy()
        jitter = 0.5 * grid.dx + 0.5j * grid.dy

        def run_rows(share: np.ndarray):
            return [_schur_column(diag, xs, ys[iy], jitter) for iy in share]

    else:
        chunk = min(grid.nx, max(1, (1 << 22) // max(1, n * n)))

        def run_rows(share: np.ndarray):
            buf = np.empty((chunk, n, n), dtype=complex)
            return [
                (_svd_column(matrix, xs, iy, ys[iy], grid.epsilon, buf), [], [])
                for iy in share
            ]

    # contiguous shares keep the first failing row first in the results,
    # so an error names the same row for any thread count
    shares = np.array_split(np.arange(grid.ny), min(threads, grid.ny))
    with ThreadPoolExecutor(max_workers=len(shares)) as pool:
        rows = [row for done in pool.map(run_rows, shares) for row in done]
    for iy, (col, flags, dead) in enumerate(rows):
        values[:, iy] = col
        flagged.extend((ix, iy) for ix in flags)
        sentinels.extend((ix, iy) for ix in dead)

    return BrownField(
        grid=grid,
        values=values,
        path=path,
        flagged=tuple(flagged),
        sentinels=tuple(sentinels),
    )


def brown_laplacian(field_in: BrownField) -> BrownField:
    """Fill per-cell masses: (1/2pi) x five-point Laplacian x cell area.

    The noise floor is an a posteriori estimate of the discretization error
    of one cell mass, from fourth differences of the field.  Sentinel nodes
    poison every stencil they touch and are a hard error; nudged (flagged)
    nodes carry usable values and are merely reported.
    """
    grid = field_in.grid
    v = field_in.values
    # the four corner nodes are the only ones no interior stencil reads
    corners = {
        (0, 0),
        (0, grid.ny - 1),
        (grid.nx - 1, 0),
        (grid.nx - 1, grid.ny - 1),
    }
    contaminated = sorted(set(field_in.sentinels) - corners)
    if contaminated:
        raise SentinelError(
            f"field has singular nodes at {contaminated}; resample the grid"
        )
    finite = np.isfinite(v)
    if not finite.all():
        bad = {(int(i), int(j)) for i, j in zip(*np.nonzero(~finite))}
        if bad - corners:
            raise SentinelError(
                f"field has non-finite values at {sorted(bad - corners)}"
            )
        # corner infinities never enter a stencil; mask them out of the
        # fourth-difference scan only
        v = np.where(finite, v, np.nan)
    dx, dy = grid.dx, grid.dy
    lap = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / dx**2 + (
        v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]
    ) / dy**2
    mass = lap * (dx * dy) / (2.0 * math.pi)

    # fourth differences bound the five-point stencil's truncation error:
    # |error| <= (dx^2 v_xxxx + dy^2 v_yyyy)/12 with derivatives read off
    # divided differences
    if grid.nx >= 5 and grid.ny >= 5:
        d4x = np.abs(
            v[4:, :] - 4.0 * v[3:-1, :] + 6.0 * v[2:-2, :] - 4.0 * v[1:-3, :] + v[:-4, :]
        )
        d4y = np.abs(
            v[:, 4:] - 4.0 * v[:, 3:-1] + 6.0 * v[:, 2:-2] - 4.0 * v[:, 1:-3] + v[:, :-4]
        )
        floor = (
            (np.nanmax(d4x) / dx**2 + np.nanmax(d4y) / dy**2)
            / 12.0
            * (dx * dy)
            / (2.0 * math.pi)
        )
    else:
        floor = math.inf
    return replace(field_in, laplacian_mass=mass, noise_floor=float(floor))


def _interior_nodes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    return grid.xs()[1:-1], grid.ys()[1:-1]


def mass_in_region(field_in: BrownField, predicate) -> float:
    """Total cell mass at interior nodes (x, y) where predicate(x, y) holds."""
    if field_in.laplacian_mass is None:
        raise DomainError("laplacian not computed; call brown_laplacian first")
    xs, ys = _interior_nodes(field_in.grid)
    mask = np.broadcast_to(
        np.asarray(predicate(xs[:, None], ys[None, :]), dtype=bool),
        field_in.laplacian_mass.shape,
    )
    return float(field_in.laplacian_mass[mask].sum())


# -- exports -----------------------------------------------------------------


def field_csv_text(field_in: BrownField) -> str:
    """CSV rows x,y,value,mass; the mass column is blank on boundary nodes."""
    grid = field_in.grid
    xs = [repr(x) for x in grid.xs().tolist()]
    ys = [repr(y) for y in grid.ys().tolist()]
    masses = field_in.laplacian_mass
    tails = [[""] * grid.ny] * grid.nx
    if masses is not None:
        for ix, row in enumerate(masses.tolist(), start=1):
            tails[ix] = ["", *map(repr, row), ""]
    lines = ["x,y,value,mass"]
    for x, row, tail in zip(xs, field_in.values.tolist(), tails):
        lines.extend(f"{x},{y},{v!r},{m}" for y, v, m in zip(ys, row, tail))
    return "\n".join(lines) + "\n"


def mass_csv_text(field_in: BrownField) -> str:
    if field_in.laplacian_mass is None:
        raise DomainError("laplacian not computed; call brown_laplacian first")
    xs, ys = _interior_nodes(field_in.grid)
    ys = [repr(y) for y in ys.tolist()]
    lines = ["x,y,mass"]
    for x, row in zip(xs.tolist(), field_in.laplacian_mass.tolist()):
        lines.extend(f"{x!r},{y},{m!r}" for y, m in zip(ys, row))
    return "\n".join(lines) + "\n"


def field_metadata(field_in: BrownField, **extra) -> dict:
    grid = field_in.grid
    meta = {
        "grid": {k: v for k, v in asdict(grid).items() if k != "epsilon"},
        "epsilon": grid.epsilon,
        "path": field_in.path,
        "flagged_nodes": [list(t) for t in field_in.flagged],
        "sentinel_nodes": [list(t) for t in field_in.sentinels],
        "noise_floor": None
        if math.isnan(field_in.noise_floor)
        else field_in.noise_floor,
        "total_mass": None
        if field_in.laplacian_mass is None
        else float(field_in.laplacian_mass.sum()),
    }
    meta.update(extra)
    return meta
