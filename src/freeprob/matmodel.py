"""Seeded random-matrix realizations of two free copies of the 2x2 algebra.

A pair of orthogonal 2x2 matrix-unit systems, one fixed and one conjugated
by a Haar-random unitary Q, realizes the free product of two copies of
(M_2, half-trace) asymptotically: mixed traces of centered words vanish as
the dimension grows.  The purely algebraic relations (squares of
reflections, nilpotency of matrix units, the block identities tying the two
systems together) all follow from Q's unitarity, so the one residual
||Q*Q - I|| checks them in every realization.  These models are the
independent oracle the analytic modules are checked against.

Everything is driven by a single master seed.  Per-object generators are
derived by hashing the seed together with a stable label, so each object
gets an independent stream and rebuilding with the same seed is bitwise
reproducible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np
from scipy.linalg.lapack import zgeqrf, zungqr

from .config import require_fits
from .errors import (
    DimensionMismatchError,
    DomainError,
    EigensolveError,
    WordSpecError,
)
from .rdiagonal import OperatorTag

__all__ = [
    "MatrixModel",
    "FreeGroupModel",
    "FactorizationGap",
    "derive_rng",
    "haar_unitary",
    "m2_generators",
    "build_m2_free_m2",
    "build_free_group",
    "realize",
    "exact_identity_residuals",
    "spectrum",
    "ks_distance",
    "ntrace",
    "centered",
    "word_trace",
    "trace_factorization_check",
]


def derive_rng(master_seed: int, label: str) -> np.random.Generator:
    """Independent generator for (master_seed, label), stable across runs."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words.tolist()))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phase-fixed.

    Each column of Q is rescaled by the phase of the matching diagonal entry
    of R; without that correction the QR factorization is biased by the
    sign convention of the decomposition.

    The Ginibre matrix is drawn into one Fortran-order array, factored there
    by LAPACK zgeqrf and turned into Q there by zungqr, so the build holds
    the rotation and an O(dim * 32) workspace; only R's diagonal is copied
    out.  The f2py wrappers honour overwrite_a only for F-contiguous arrays
    and silently copy any other layout, and the lwork = -1 workspace queries
    pass it too, since a query without it copies the whole matrix.  The
    result is F-ordered and equal, byte for byte, to the same expression
    through np.linalg.qr.
    """
    if dim < 1:
        raise DomainError(f"unitary dimension must be >= 1, got {dim}")
    require_fits(16 * dim**2, f"a Haar rotation of dimension {dim}")
    # standard_normal refuses the strided g.real and g.imag as out=; row
    # chunks of ~64K draws equal the bulk (dim, dim) draws bit for bit
    g = np.empty((dim, dim), dtype=complex, order="F")
    rows = max(1, 65536 // dim)
    for part in (g.real, g.imag):
        for i in range(0, dim, rows):
            part[i : i + rows] = rng.standard_normal((min(rows, dim - i), dim))
    g /= math.sqrt(2.0)
    tau = _lapack_call(zgeqrf, g)[1]
    d = np.diagonal(g).copy()
    q = _lapack_call(zungqr, g, tau)[0]
    q *= d / np.abs(d)
    return q


def _lapack_call(routine: Callable, a: np.ndarray, *args: np.ndarray) -> list:
    """Run a scipy LAPACK wrapper in place on F-ordered a, workspace queried first."""
    work = routine(a, *args, lwork=-1, overwrite_a=1)[-2]
    *out, info = routine(a, *args, lwork=int(work[0].real), overwrite_a=1)
    if info != 0:
        raise EigensolveError(f"LAPACK {routine.__name__} failed with info = {info}")
    return out


def m2_generators() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four unitary 2x2 generators: identity, sign flip, rotation, swap.

    All but the rotation w2 are self-adjoint; w2 squares to -I.
    """
    w0 = np.eye(2, dtype=complex)
    w1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    w2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    w3 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return w0, w1, w2, w3


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_UNIT_INDICES = ("11", "12", "21", "22")


@dataclass(frozen=True, eq=False)
class MatrixModel:
    """One seeded realization of the doubled 2x2 algebra at half_dim n.

    Only the Haar rotation Q = [Q_1 Q_2] (n-column blocks) is stored.
    W_i = w_i (x) I_n act as the first copy and E_ij = e_ij (x) I_n are its
    matrix units; the second copy's units are F_ij = Q_i Q_j* and its
    generators V_k = Q W_k Q* = sum_ij (w_k)_ij F_ij.  factor() builds each
    on first use and caches it read-only.  Since AB and BA share their
    nonzero eigenvalues, every catalog spectrum is read from one of two n x n
    block eigensolves, each a read-only property solved once per model.
    """

    half_dim: int
    seed: int
    rotation: np.ndarray
    _factors: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    def columns(self, j: int) -> np.ndarray:
        """Q_j, the j-th block of n columns of the rotation (j = 1, 2)."""
        n = self.half_dim
        return self.rotation[:, (j - 1) * n : j * n]

    def block(self, i: int, j: int) -> np.ndarray:
        """Q_ij, the n x n block of Q_j in block row i."""
        n = self.half_dim
        return self.columns(j)[(i - 1) * n : i * n]

    def factor(self, name: str) -> np.ndarray:
        if name in self._factors:
            return self._factors[name]
        letter, index = name[:1], name[1:]
        if name in ("W0", "W1", "W2", "W3"):
            mat = np.kron(m2_generators()[int(index)], np.eye(self.half_dim, dtype=complex))
        elif name in ("V0", "V1", "V2", "V3"):
            w = m2_generators()[int(index)]
            mat = sum(w[i, j] * self.factor(f"F{i + 1}{j + 1}") for i, j in zip(*np.nonzero(w)))
        elif letter == "E" and index in _UNIT_INDICES:
            unit = np.zeros((2, 2), dtype=complex)
            unit[int(index[0]) - 1, int(index[1]) - 1] = 1.0
            mat = np.kron(unit, np.eye(self.half_dim, dtype=complex))
        elif letter == "F" and index in _UNIT_INDICES:
            mat = self.columns(int(index[0])) @ self.columns(int(index[1])).conj().T
        else:
            raise WordSpecError(f"unknown factor {name!r} for a matrix model")
        return self._factors.setdefault(name, _freeze(mat))

    @cached_property
    def reflected_eigenvalues(self) -> np.ndarray:
        """eig(M), M = Q_12* Q_11 - Q_22* Q_21 = Q_2* W1 Q_1: det(z - W1 F12)
        = z^n det(z - M) and det(z - W1 - F12) = det(z^2 - 1 - M)."""
        core = self.block(1, 2).conj().T @ self.block(1, 1) - self.block(2, 2).conj().T @ self.block(2, 1)
        return _freeze(_eigvals(core, f"the reflected core of seed {self.seed}"))

    @cached_property
    def nilpotent_eigenvalues(self) -> np.ndarray:
        """eig(N), N = Q_21 Q_12*: E12 + F12 = A B* for A = [I_1 Q_1], B = [I_2 Q_2],
        and B*A = [[0, Q_21], [Q_12*, 0]] has the eigenvalues +-sqrt(eig N)."""
        core = self.block(2, 1) @ self.block(1, 2).conj().T
        return _freeze(_eigvals(core, f"the nilpotent core of seed {self.seed}"))


def _eigvals(matrix: np.ndarray, source: str) -> np.ndarray:
    """Dense non-symmetric eigenvalues, with diagnostics if LAPACK fails."""
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        row_sum = float(np.max(np.abs(matrix).sum(axis=1)))
        norm = float(np.linalg.norm(matrix, "fro")) / math.sqrt(matrix.shape[0])
        raise EigensolveError(
            f"eigensolve failed for {source} (dim={matrix.shape[0]}, "
            f"normalized Frobenius norm={norm:.3e}, "
            f"max row sum={row_sum:.3e}): {exc}"
        ) from exc


# -- the catalog operators ---------------------------------------------------


def _square(s: np.ndarray) -> np.ndarray:
    return s @ s


def _plus_minus(v: np.ndarray) -> np.ndarray:
    return np.concatenate((v, -v))


def _twice(v: np.ndarray) -> np.ndarray:
    return np.concatenate((v, v))


# each catalog operator's (realization from the model's named factors, 2n
# eigenvalues from its reflected (mu) and nilpotent (nu) block eigenvalues)
_OPERATORS: dict[OperatorTag, tuple[Callable[[MatrixModel], np.ndarray], ...]] = {
    # eig(M) and the kernel of rank-n F12 as n exact zeros
    OperatorTag.W1F12: (lambda m: m.factor("W1") @ m.factor("F12"),
                        lambda m: np.pad(m.reflected_eigenvalues, (0, m.half_dim))),
    OperatorTag.E12_plus_F12: (lambda m: m.factor("E12") + m.factor("F12"),
                               lambda m: _plus_minus(np.sqrt(m.nilpotent_eigenvalues))),
    OperatorTag.E12_plus_F12_squared: (lambda m: _square(m.factor("E12") + m.factor("F12")),
                                       lambda m: _twice(m.nilpotent_eigenvalues)),
    OperatorTag.W1_plus_F12_squared: (lambda m: _square(m.factor("W1") + m.factor("F12")),
                                      lambda m: _twice(1.0 + m.reflected_eigenvalues)),
    OperatorTag.W1_plus_F12: (lambda m: m.factor("W1") + m.factor("F12"),
                              lambda m: _plus_minus(np.sqrt(1.0 + m.reflected_eigenvalues))),
}


def realize(model: MatrixModel, tag: OperatorTag | str) -> np.ndarray:
    """The matrix of a catalogued operator in this model."""
    return _OPERATORS[OperatorTag(tag)][0](model)


def spectrum(model: MatrixModel, tag: OperatorTag | str) -> np.ndarray:
    """A catalogued operator's 2n eigenvalues from the model's two n x n
    block eigensolves; the 2n x 2n matrix is never formed."""
    return _OPERATORS[OperatorTag(tag)][1](model)


@dataclass(frozen=True, eq=False)
class FreeGroupModel:
    """Two independent Haar unitaries standing in for free group generators."""

    dim: int
    seed: int
    u_a: np.ndarray
    u_b: np.ndarray


def build_m2_free_m2(n: int, seed: int) -> MatrixModel:
    """Haar-rotate one copy of the doubled 2x2 algebra against another."""
    if n < 1:
        raise DomainError(f"half dimension must be >= 1, got {n}")
    q = haar_unitary(2 * n, derive_rng(seed, "m2-rotation"))
    return MatrixModel(half_dim=n, seed=seed, rotation=_freeze(q))


def build_free_group(dim: int, seed: int) -> FreeGroupModel:
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    return FreeGroupModel(
        dim=dim,
        seed=seed,
        u_a=_freeze(haar_unitary(dim, derive_rng(seed, "free-group:a"))),
        u_b=_freeze(haar_unitary(dim, derive_rng(seed, "free-group:b"))),
    )


def exact_identity_residuals(model: MatrixModel) -> dict[str, float]:
    """The Frobenius residual ||Q*Q - I|| of the model's Haar rotation.

    Every relation of the model (W1^2 = I, F12^2 = 0, the block forms behind
    the squared laws) follows from Q being unitary, and the residual is zero
    exactly when Q is, so this one number stands for all of them.
    """
    q = model.rotation
    residual = np.linalg.norm(q.conj().T @ q - np.eye(model.dim), "fro")
    return {"rotation_unitarity": float(residual)}


# -- spectra ----------------------------------------------------------------


def ks_distance(radii: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between sampled radii and a model CDF.

    Tied radii (the atom at the center in particular) are treated as one
    jump of the empirical CDF, compared against the model's value and left
    limit at that radius; the left limit at radius 0 is 0.
    """
    radii = np.asarray(radii, dtype=float)
    n = radii.size
    if n == 0:
        raise DomainError("KS distance needs a nonempty sample")
    values, counts = np.unique(radii, return_counts=True)
    cum_hi = np.cumsum(counts) / n
    cum_lo = cum_hi - counts / n
    model = np.asarray(cdf(values), dtype=float)
    left_points = np.nextafter(values, -np.inf)
    model_left = np.asarray(cdf(left_points), dtype=float)
    model_left = np.where(values <= 0.0, 0.0, model_left)
    return float(
        max(np.max(np.abs(model - cum_hi)), np.max(np.abs(model_left - cum_lo)))
    )


# -- traces and words --------------------------------------------------------


def ntrace(matrix: np.ndarray) -> complex:
    """Normalized trace tr/dim."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {matrix.shape}")
    return complex(np.trace(matrix)) / matrix.shape[0]


def centered(matrix: np.ndarray) -> np.ndarray:
    """Subtract the normalized trace times the identity."""
    matrix = np.asarray(matrix)
    tau = ntrace(matrix)
    out = matrix.astype(np.result_type(matrix, 1j))
    out[np.diag_indices_from(out)] -= tau
    return out


def word_trace(model: MatrixModel, word: str) -> complex:
    """Normalized trace of a word in the model's named factors.

    A word is whitespace-separated tokens, each NAME or c(NAME), multiplied
    left to right; c() subtracts the factor's normalized trace times the
    identity.  An empty word raises WordSpecError, and so does any other
    token, through MatrixModel.factor, which knows no such name.
    """
    tokens = word.split()
    if not tokens:
        raise WordSpecError("empty word")
    mats = {
        t: centered(model.factor(t[2:-1])) if t.startswith("c(") and t.endswith(")") else model.factor(t)
        for t in dict.fromkeys(tokens)
    }
    return ntrace(reduce(np.matmul, [mats[t] for t in tokens]))


# -- the trace factorization identity ----------------------------------------


@dataclass(frozen=True)
class FactorizationGap:
    """Both sides of the factorized-trace identity and their distance."""

    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def trace_factorization_check(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    z: np.ndarray,
) -> FactorizationGap:
    """Compare tau((AZB)*(CZD)) with tau(A*C) tau(B*D) tau(Z*Z).

    The identity holds exactly when Z is a centered element free from the
    algebra generating A, B, C, D; in the matrix model it holds up to a
    finite-dimension correction.  A Haar unitary is centered only up to a
    trace of order 1/dim, so only grossly uncentered Z is rejected.
    """
    mats = [np.asarray(m, dtype=complex) for m in (a, b, c, d, z)]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise DimensionMismatchError("all five factors must share one square shape")
    a, b, c, d, z = mats
    scale = max(float(np.linalg.norm(z, "fro")) / math.sqrt(dim), 1e-300)
    if abs(ntrace(z)) > 0.1 * scale:
        raise DomainError(
            f"Z must be centered: normalized trace is {ntrace(z):.3e}"
        )

    # tau(X*Y) is the Frobenius inner product of X and Y over dim
    def tau(x, y):
        return complex(np.vdot(x, y)) / dim

    lhs = tau(a @ z @ b, c @ z @ d)
    rhs = tau(a, c) * tau(b, d) * tau(z, z)
    return FactorizationGap(lhs=lhs, rhs=rhs)

