"""Spectral-distribution estimation for non-normal matrices from first principles.

The distribution of a non-normal matrix is recovered from the field
L(lambda) = ln det_eps(T - lambda) evaluated on a rectangular grid, where
det_eps is the regularized normalized determinant built from singular
values.  At epsilon > 0 the product of regularized squared singular values
is det((T - lambda)*(T - lambda) + eps I), read off a Cholesky factor, so
no singular value is computed; at epsilon = 0 it is the product of the
eigenvalues' distances, one on a node read at half a cell diagonal from it,
so every node is finite.  Applying (1/2pi) times the discrete Laplacian and
scaling by the cell area turns the field into per-cell masses whose total
approximates the fraction of spectrum inside the grid.
Everything here is deterministic given the inputs; grid nodes are
independent work items, so results do not depend on the number of worker
threads.  The Cholesky factorizations call LAPACK's zpotrf through a
foreign-function handle that drops the interpreter lock, so worker threads
factor their rows at the same time.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg import cython_lapack

from .config import require_fits
from .errors import DimensionMismatchError, DomainError, EigensolveError

__all__ = [
    "GridSpec",
    "BrownField",
    "default_epsilon",
    "require_gram_fits",
    "logdet_field",
    "brown_laplacian",
    "mass_in_region",
    "field_csv_text",
    "mass_csv_text",
    "field_metadata",
]

# nodes per axis of the default grid
GRID_N = 256
# the default regularization is EPSILON_SCALE * ||T||_2^2
EPSILON_SCALE = 1e-6
# Gram entries in one worker's batch: 2**18 complex entries are 4 MiB
BATCH_ENTRIES = 1 << 18
# logdet_field starts one thread per worker, so their count is bounded
MAX_THREADS = 256


def _bind_zpotrf():
    """LAPACK's zpotrf(uplo, n, a, lda, info), the routine scipy's own
    wrappers call, as a foreign function of five pointers.  ctypes drops the
    interpreter lock for each call, so worker threads factor at once."""
    capsule = cython_lapack.__pyx_capi__["zpotrf"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = get_pointer(capsule, get_name(capsule))
    signature = ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p
    )
    return signature(address)


_zpotrf = _bind_zpotrf()


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid for the complex plane, with regularization.

    logdet_field fills in unset (None) bounds, all four or none, as a covering
    grid at the same nx and ny, and an unset epsilon as default_epsilon."""

    x_min: float | None = None
    x_max: float | None = None
    y_min: float | None = None
    y_max: float | None = None
    nx: int = GRID_N
    ny: int = GRID_N
    epsilon: float | None = 0.0

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        unset = bounds.count(None)
        if unset not in (0, 4):
            raise DomainError("grid bounds must be all set or all unset")
        if not all(math.isfinite(v) for v in (*bounds, self.epsilon) if v is not None):
            raise DomainError("grid bounds and epsilon must be finite")
        if not unset and not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("grid bounds must satisfy min < max on both axes")
        if self.nx < 3 or self.ny < 3:
            raise DomainError("grid needs at least 3 nodes per axis")
        # the Laplacian divides by the squared cell sides
        if not unset and not math.isfinite(self.dx * self.dx + self.dy * self.dy):
            raise DomainError(
                f"grid cells of {self.dx:.3g} x {self.dy:.3g} square past the double range"
            )
        if self.epsilon is not None and self.epsilon < 0.0:
            raise DomainError("epsilon must be >= 0")
        require_fits(8 * self.nx * self.ny, f"a {self.nx} x {self.ny} field")

    @classmethod
    def square(
        cls, radius: float, n: int, center: complex = 0j, epsilon: float | None = 0.0
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
    def covering(cls, points: np.ndarray, n: int, epsilon: float | None = 0.0) -> "GridSpec":
        """An n x n grid around the given complex points; see _around.  An
        unset epsilon pads as 0, since the matrix that sets it is not given."""
        return cls(nx=n, ny=n)._around(points, epsilon)

    def _around(self, points: np.ndarray, epsilon: float | None) -> "GridSpec":
        """This grid's nodes spread over the given complex points, padded on
        every side by a quarter of the larger side of their bounding box, and
        by at least 10 sqrt(epsilon), over which an epsilon > 0 spreads mass."""
        points = np.asarray(points, dtype=complex)
        x0, x1 = float(points.real.min()), float(points.real.max())
        y0, y1 = float(points.imag.min()), float(points.imag.max())
        pad = max(0.25 * max(x1 - x0, y1 - y0, 1e-3), 10.0 * math.sqrt(epsilon or 0.0))
        return replace(
            self, x_min=x0 - pad, x_max=x1 + pad, y_min=y0 - pad, y_max=y1 + pad, epsilon=epsilon
        )

    def _axes(self) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
        """(min, max, nodes) along x and along y; unset bounds are refused."""
        if self.x_min is None:
            raise DomainError("grid bounds are unset: logdet_field resolves them")
        return (self.x_min, self.x_max, self.nx), (self.y_min, self.y_max, self.ny)

    @property
    def dx(self) -> float:
        lo, hi, n = self._axes()[0]
        return (hi - lo) / (n - 1)

    @property
    def dy(self) -> float:
        lo, hi, n = self._axes()[1]
        return (hi - lo) / (n - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(*self._axes()[0])

    def ys(self) -> np.ndarray:
        return np.linspace(*self._axes()[1])

    def nodes(self) -> np.ndarray:
        """Complex node values, shape (nx, ny), index [ix, iy]."""
        return self.xs()[:, None] + 1j * self.ys()[None, :]


@dataclass(frozen=True, eq=False)
class BrownField:
    """Log-determinant field and its cell masses.

    values[ix, iy] holds L at node (x_ix, y_iy).  laplacian_mass is
    (nx-2) x (ny-2) over interior nodes; noise_floor is an a posteriori
    bound on the discretization error of a single cell mass, inf on a grid
    too small to estimate it.  flagged lists the epsilon = 0 nodes that lie
    on an eigenvalue, whose distance there reads as half the cell diagonal.
    """

    grid: GridSpec
    values: np.ndarray
    laplacian_mass: np.ndarray
    noise_floor: float
    flagged: tuple[tuple[int, int], ...] = ()

    @property
    def path(self) -> str:
        """The kernel that evaluated the field, which epsilon selects."""
        return "eigenvalues" if self.grid.epsilon == 0.0 else "svd"

    def total_mass(self) -> float:
        return float(self.laplacian_mass.sum())


def default_epsilon(matrix: np.ndarray) -> float:
    """The standard regularization scale, EPSILON_SCALE times the squared
    2-norm; a norm whose square passes the double range is refused, and a
    failed SVD raises EigensolveError."""
    try:
        norm = float(np.linalg.norm(matrix, 2))
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolve failed: {exc}") from exc
    try:
        return EPSILON_SCALE * norm**2
    except OverflowError:
        raise DomainError(f"||T||_2 = {norm:.3g} squares past the double range") from None


def require_gram_fits(n: int, nx: int, workers: int) -> int:
    """Refuse an epsilon > 0 field of an n x n matrix on nx-node grid rows if
    its workers, each holding a row's Gram pair B*B, B + B* and a batch of at
    most BATCH_ENTRIES Gram entries, would pass the size cap; return the
    batch length, which the worker count never changes."""
    chunk = min(nx, max(1, BATCH_ENTRIES // max(1, n * n)))
    what = f"{workers} worker(s), each with the Gram pair of a {n} x {n} matrix and a {chunk}-node batch,"
    require_fits(workers * (16 * chunk + 32) * n * n, what)
    return chunk


def _eig_column(
    eigs: np.ndarray, xs: np.ndarray, y: float, h: float
) -> tuple[np.ndarray, list[int]]:
    """One grid row of (1/N) sum ln|lambda_k - lambda|: a distance that is
    exactly 0 reads as h, and its node is flagged."""
    dist = np.abs(eigs[None, :] - (xs + 1j * y)[:, None])
    hit = dist == 0.0
    dist[hit] = h
    flagged = np.nonzero(hit.any(axis=1))[0].tolist()
    return np.log(dist).sum(axis=1) / eigs.size, flagged


def _cholesky_batch(gram: np.ndarray) -> np.ndarray:
    """Factor each node of the C-ordered batch gram in place; return
    LAPACK's info per node, nonzero where a factor is undefined.

    Read in Fortran order the C-ordered Hermitian G is its conjugate, so
    the lower factor written over each node has G's real diagonal.
    """
    count, n = gram.shape[:2]
    # LAPACK writes through raw addresses, which only this layout makes safe
    if not (gram.dtype == np.complex128 and gram.flags.carray and gram.shape[1:] == (n, n)):
        raise ValueError("expected a writable C-ordered complex128 batch of square matrices")
    # LAPACK reads n and lda through one pointer; node k starts k strides in
    dim = np.array(n, dtype=np.intc)
    info = np.zeros(count, dtype=np.intc)
    n_ptr, stride = dim.ctypes.data, gram.strides[0]
    nodes = range(gram.ctypes.data, gram.ctypes.data + count * stride, stride)
    flags = range(info.ctypes.data, info.ctypes.data + info.nbytes, info.itemsize)
    for node, flag in zip(nodes, flags):
        # OpenBLAS factors this lower form faster than the upper one
        _zpotrf(b"L", n_ptr, node, n_ptr, flag)
    return info


def _svd_column(
    matrix: np.ndarray, xs: np.ndarray, iy: int, y: float, epsilon: float, buf: np.ndarray
) -> np.ndarray:
    """One grid row of (1/2N) sum ln(sigma_i^2 + eps) via Cholesky in buf.

    With B = T - iyI and lambda = x + iy, the shifted Gram matrix is
    (T - lambda)*(T - lambda) + eps I = B*B - x(B + B*) + (x^2 + eps)I, so
    each batch of buf's length is one product of the coefficients [1, -x]
    against B*B and B + B*, written into buf and factored there.  The sum
    of logs is ln det = 2 sum ln L_ii.
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
        if _cholesky_batch(gram).any():
            raise DomainError(
                f"epsilon {epsilon:.3e} is below the rounding of the Gram "
                f"matrix on grid row {iy} (y = {float(y)!r}); use --epsilon 0 "
                "or a larger epsilon"
            )
        diag = np.diagonal(gram, axis1=1, axis2=2).real
        out[start : start + x.size] = np.log(diag).sum(axis=1) / n
    return out


def logdet_field(matrix: np.ndarray, grid: GridSpec, threads: int = 1) -> BrownField:
    """Evaluate the log-determinant field on the grid and its cell masses.

    Unset bounds become GridSpec.covering of the eigenvalues at the grid's
    own nx and ny, an unset epsilon default_epsilon, and the field holds the
    resolved grid.  In order: the square and thread-count checks; the
    size-cap refusal of the Gram pairs and batches, made when a given
    epsilon is > 0 or an unset one belongs to a nonzero matrix; the default
    epsilon; one eigensolve for the covering grid and epsilon = 0.

    The kernel follows epsilon.  At epsilon = 0 the "eigenvalues" kernel reads
    the eigenvalues' distances to each node (exact, and O(total nodes x N)
    after the eigensolve); an eigenvalue on a node reads as at
    distance h = hypot(dx, dy) / 2 and flags the node, so no node is
    singular.  At epsilon > 0 the "svd" kernel, named
    for the singular-value formula, builds each grid row's shifted Gram
    matrices from two N x N matrices into a batch buffer of at most
    BATCH_ENTRIES Gram entries and factors them there by Cholesky; an
    epsilon below the Gram matrix's rounding leaves a factor undefined and
    raises DomainError.
    Grid rows are split into one contiguous share per thread, each thread
    reusing one buffer for its share, and written back by index, so the
    result is identical for any thread count.  Each factorization runs
    without the interpreter lock, so the threads' shares are factored at
    the same time.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if threads > MAX_THREADS:
        raise DomainError(f"threads must be <= {MAX_THREADS}, got {threads}")
    n = matrix.shape[0]
    workers = min(threads, grid.ny)
    # the Gram kernel runs at a given epsilon > 0 or the default of a nonzero matrix
    if grid.epsilon > 0.0 if grid.epsilon is not None else matrix.any():
        chunk = require_gram_fits(n, grid.nx, workers)
    epsilon = default_epsilon(matrix) if grid.epsilon is None else grid.epsilon
    if epsilon == 0.0 or grid.x_min is None:
        try:
            eigs = np.linalg.eigvals(matrix)
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"eigensolve failed: {exc}") from exc
    grid = grid._around(eigs, epsilon) if grid.x_min is None else replace(grid, epsilon=epsilon)

    xs, ys = grid.xs(), grid.ys()
    if epsilon == 0.0:
        h = 0.5 * math.hypot(grid.dx, grid.dy)

        def run_rows(share: np.ndarray):
            return [_eig_column(eigs, xs, ys[iy], h) for iy in share]

    else:
        def run_rows(share: np.ndarray):
            buf = np.empty((chunk, n, n), dtype=complex)
            return [(_svd_column(matrix, xs, iy, ys[iy], epsilon, buf), []) for iy in share]

    # contiguous shares keep the first failing row first in the results,
    # so an error names the same row for any thread count
    shares = np.array_split(np.arange(grid.ny), workers)
    with ThreadPoolExecutor(max_workers=len(shares)) as pool:
        rows = [row for done in pool.map(run_rows, shares) for row in done]
    values = np.stack([col for col, _ in rows], axis=1)
    flagged = tuple((ix, iy) for iy, (_, flags) in enumerate(rows) for ix in flags)

    mass, floor = brown_laplacian(grid, values)
    return BrownField(
        grid=grid, values=values, laplacian_mass=mass, noise_floor=floor, flagged=flagged
    )


def brown_laplacian(grid: GridSpec, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-cell masses, (1/2pi) x five-point Laplacian x cell area, and
    their noise floor.

    The noise floor is an a posteriori estimate of the discretization error
    of one cell mass, from fourth differences of the field.  Values of
    another shape than the grid's (nx, ny) raise DimensionMismatchError, a
    grid with unset bounds or a non-finite value DomainError.
    """
    if values.shape != (grid.nx, grid.ny):
        raise DimensionMismatchError(
            f"field values of shape {values.shape} on a {grid.nx} x {grid.ny} grid"
        )
    dx, dy = grid.dx, grid.dy
    bad = np.argwhere(~np.isfinite(values)).tolist()
    if bad:
        raise DomainError(f"field has non-finite values at nodes {[tuple(b) for b in bad]}")
    v = values
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
            (d4x.max() / dx**2 + d4y.max() / dy**2)
            / 12.0
            * (dx * dy)
            / (2.0 * math.pi)
        )
    else:
        floor = math.inf
    return mass, float(floor)


def _interior_nodes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    return grid.xs()[1:-1], grid.ys()[1:-1]


def mass_in_region(field_in: BrownField, predicate) -> float:
    """Total cell mass at interior nodes (x, y) where predicate(x, y) holds."""
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
    edge = [""] * grid.ny
    inner = (["", *map(repr, row), ""] for row in field_in.laplacian_mass.tolist())
    tails = [edge, *inner, edge]
    lines = ["x,y,value,mass"]
    for x, row, tail in zip(xs, field_in.values.tolist(), tails):
        lines.extend(f"{x},{y},{v!r},{m}" for y, v, m in zip(ys, row, tail))
    return "\n".join(lines) + "\n"


def mass_csv_text(field_in: BrownField) -> str:
    xs, ys = _interior_nodes(field_in.grid)
    ys = [repr(y) for y in ys.tolist()]
    lines = ["x,y,mass"]
    for x, row in zip(map(repr, xs.tolist()), field_in.laplacian_mass.tolist()):
        lines.extend(f"{x},{y},{m!r}" for y, m in zip(ys, row))
    return "\n".join(lines) + "\n"


def field_metadata(field_in: BrownField, **extra) -> dict:
    grid = field_in.grid
    meta = {
        "grid": {k: v for k, v in asdict(grid).items() if k != "epsilon"},
        "epsilon": grid.epsilon,
        "path": field_in.path,
        "flagged_nodes": [list(t) for t in field_in.flagged],
        # JSON has no inf: a floor the grid is too small to estimate is null
        "noise_floor": field_in.noise_floor
        if math.isfinite(field_in.noise_floor)
        else None,
        "total_mass": field_in.total_mass(),
    }
    meta.update(extra)
    return meta
