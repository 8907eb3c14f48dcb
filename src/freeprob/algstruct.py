"""Structure of matrix algebras: closure, commutant, radical, invariant
subspaces, and transitivity decisions.

A unital subalgebra of M_N either acts without proper invariant subspaces,
in which case it is all of M_N, or it leaves a subspace invariant that can
be produced constructively: the image of the trace radical when the algebra
is not semisimple, or an eigenspace of a non-scalar commutant element
otherwise.  Both discovery routes re-verify their answer against the raw
generators, and the "no subspace" branch cross-checks dim = N^2, so a wrong
decision surfaces as a hard internal failure instead of a quiet wrong
boolean.  The k-fold transitivity decision runs two independent routes
(ampliation lattice and orbit sampling) and treats any certified
disagreement the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SIZE, TOL
from .errors import DimensionMismatchError, DomainError, InternalInconsistencyError

__all__ = [
    "SubspaceReport",
    "close_algebra",
    "commutant",
    "radical",
    "find_invariant_subspace",
    "is_transitive",
    "kfold_transitive",
]

# inputs whose largest array would pass this size are refused up front
_MAX_SYSTEM_BYTES = 256 * 2**20


def _require_fits(need: int, what: str) -> None:
    if need > _MAX_SYSTEM_BYTES:
        raise DomainError(
            f"{what} needs ~{need >> 20} MB, above the {_MAX_SYSTEM_BYTES >> 20} MB cap"
        )


# -- span plumbing -----------------------------------------------------------


def _rank(s: np.ndarray) -> int:
    """Numerical rank from descending singular values, cut at rank_rtol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > TOL.rank_rtol * s[0]))


def _orthonormal_rows(stack: np.ndarray) -> tuple[np.ndarray, bool]:
    """Orthonormal row basis of the row space, with borderline-gap flag.

    If the ratio between the smallest kept and largest dropped singular
    value is below the configured gap ratio the rank cut is ambiguous and
    gets flagged.
    """
    if stack.size == 0:
        return stack.reshape(0, stack.shape[-1]), False
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = _rank(s)
    flagged = (
        0 < rank < s.size and s[rank - 1] / max(s[rank], np.finfo(float).tiny)
        < TOL.gap_flag_ratio
    )
    return vh[:rank], bool(flagged)


def _as_matrices(rows: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    return tuple(row.reshape(n, n) for row in rows)


@dataclass(frozen=True, eq=False)
class AlgebraSpan:
    """Unital algebra presented by a trace-orthonormal basis.

    close_algebra is the only supported constructor: it makes the basis
    span exactly the algebra the generators generate.  The constructor
    itself checks only that the basis is trace-orthonormal (trace(b_i^* b_j)
    = delta_ij) and holds the identity, and commutant and invariance checks
    read only the generators, so a span built by hand answers for its
    generators, not its basis.  closure_residual is the largest relative
    residual of close_algebra's final left products; gap_flagged marks a
    borderline singular-value cut.
    """

    ambient_dim: int
    basis: tuple[np.ndarray, ...]
    generators: tuple[np.ndarray, ...]
    closure_residual: float = 0.0
    gap_flagged: bool = False

    def __post_init__(self) -> None:
        n = self.ambient_dim
        if not self.basis:
            raise DomainError("algebra span needs at least one basis element")
        rows = self.rows
        gram = rows.conj() @ rows.T
        if np.abs(gram - np.eye(len(self.basis))).max() > 1e-8:
            raise DomainError("basis is not trace-orthonormal")
        ident = np.eye(n, dtype=complex).ravel()
        resid = ident - rows.T @ (rows.conj() @ ident)
        if np.linalg.norm(resid) > TOL.invariance_atol * np.sqrt(n):
            raise DomainError("identity does not lie in the span")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def rows(self) -> np.ndarray:
        """The basis elements, row-major flattened, as read-only rows."""
        rows = np.array([b.ravel() for b in self.basis])
        rows.flags.writeable = False
        return rows

    def project_coefficients(self, matrix: np.ndarray) -> np.ndarray:
        """Coefficients of the trace-orthogonal projection onto the span."""
        return self.rows.conj() @ np.asarray(matrix, dtype=complex).ravel()

    def contains(self, matrix: np.ndarray) -> bool:
        m = np.asarray(matrix, dtype=complex)
        coef = self.project_coefficients(m)
        resid = np.linalg.norm(m.ravel() - self.rows.T @ coef)
        return resid <= TOL.rank_rtol * max(1.0, np.linalg.norm(m))


def close_algebra(generators, ambient_dim: int | None = None) -> AlgebraSpan:
    """Smallest unital algebra containing the generators.

    A unital span closed under left products g @ b, g in (I,) + generators,
    holds every word in them, so it is the algebra.  The span grows by those
    products with rank-revealing re-orthonormalization until its dimension
    stabilizes; how far the final products stick out is the closure residual.
    """
    gens = tuple(np.asarray(g, dtype=complex) for g in generators)
    for g in gens:
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"generator has shape {g.shape}")
    dims = {g.shape[0] for g in gens}
    if len(dims) > 1:
        raise DimensionMismatchError(f"generators of mixed sizes {sorted(dims)}")
    if gens:
        n = gens[0].shape[0]
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatchError(
                f"ambient_dim {ambient_dim} != generator size {n}"
            )
    elif ambient_dim is None:
        raise DomainError("need ambient_dim when the generator list is empty")
    else:
        n = ambient_dim
    if n < 1:
        raise DomainError("ambient dimension must be positive")
    # commutant system (len(gens) + 1) N^2 x N^2 complex, plus its SVD factor
    _require_fits(16 * (len(gens) + 2) * n**4, f"commutant of {len(gens)} generators in M_{n}")

    left = (np.eye(n, dtype=complex),) + gens
    rows, flagged = _orthonormal_rows(np.array([m.ravel() for m in left]))
    # left products by the generators either grow the span or certify closure
    for _ in range(n * n + 1):
        mats = _as_matrices(rows, n)
        prows = np.array([(g @ b).ravel() for g in left for b in mats])
        new_rows, pflag = _orthonormal_rows(np.vstack([rows, prows]))
        flagged = flagged or pflag
        if new_rows.shape[0] == rows.shape[0]:
            resid_mat = prows - (prows @ rows.conj().T) @ rows
            norms = np.linalg.norm(prows, axis=1)
            resid = np.linalg.norm(resid_mat, axis=1) / np.maximum(norms, 1.0)
            return AlgebraSpan(
                ambient_dim=n,
                basis=mats,
                generators=gens,
                closure_residual=float(resid.max()) if resid.size else 0.0,
                gap_flagged=flagged,
            )
        rows = new_rows
    raise InternalInconsistencyError(
        "algebra closure failed to stabilize within the dimension bound"
    )


# -- commutant and radical ---------------------------------------------------


def commutant(span: AlgebraSpan) -> list[np.ndarray]:
    """Trace-orthonormal basis of {X : XB = BX for every B in the span}.

    A unital algebra has its generators' commutant.  Row-major vectorization
    turns X -> Xg - gX into kron(I, g^T) - kron(g, I); the commutant is the
    nullspace stacked over g in (I,) + generators.
    """
    n = span.ambient_dim
    eye = np.eye(n, dtype=complex)
    blocks = [np.kron(eye, g.T) - np.kron(g, eye) for g in (eye,) + span.generators]
    system = np.vstack(blocks)
    # rows >= cols always holds here, so the reduced SVD still returns the
    # complete right-singular set
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    null_rows = vh[_rank(s) :].conj()
    return [row.reshape(n, n) for row in null_rows]


def radical(span: AlgebraSpan) -> list[np.ndarray]:
    """Trace-orthonormal basis of {x in span : trace(x b) = 0 for all b}.

    Over the complex field this trace-form kernel is the Jacobson radical
    of the matrix algebra, so every returned element is nilpotent.
    """
    rows = span.rows
    # bilinear trace(b_i b_j) = vec(b_i) . vec(b_j^T), not sesquilinear
    gram = rows @ np.array([b.T.ravel() for b in span.basis]).T
    _, s, vh = np.linalg.svd(gram)
    coef, _ = _orthonormal_rows(vh[_rank(s) :].conj())
    n = span.ambient_dim
    return [(c @ rows).reshape(n, n) for c in coef]


# -- invariant subspaces -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubspaceReport:
    """Outcome of invariant-subspace discovery.

    kind is "none", "radical_image", or "commutant_eigenspace"; basis holds
    orthonormal column vectors spanning the subspace (shape (N, m), empty
    for kind "none"); verified records that every original generator mapped
    the subspace into itself within tolerance, with the worst residual.
    """

    kind: str
    basis: np.ndarray
    verified: bool
    residual: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "verified": self.verified,
            "residual": self.residual,
            "basis": [
                [[float(z.real), float(z.imag)] for z in self.basis[:, j]]
                for j in range(self.basis.shape[1])
            ],
        }


def _invariance_residual(generators, vectors: np.ndarray) -> float:
    """Worst relative norm of the part of g*V sticking out of span(V)."""
    worst = 0.0
    for g in generators:
        gv = g @ vectors
        out = gv - vectors @ (vectors.conj().T @ gv)
        scale = max(1.0, float(np.linalg.norm(g, 2)))
        worst = max(worst, float(np.linalg.norm(out, 2)) / scale)
    return worst


def _column_space(matrix: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : _rank(s)]


def _is_scalar(matrix: np.ndarray) -> bool:
    n = matrix.shape[0]
    c = np.trace(matrix) / n
    return bool(
        np.abs(matrix - c * np.eye(n)).max()
        <= TOL.rank_rtol * max(1.0, float(np.abs(matrix).max()))
    )


def _eigenspace_candidates(x: np.ndarray):
    """Geometric eigenspaces of x, one per eigenvalue cluster.

    Defective eigenvalues of a numeric matrix scatter by far more than
    machine epsilon, so eigenvalues are clustered first and the nullspace
    cut is widened to the cluster radius.
    """
    n = x.shape[0]
    eigs = np.linalg.eigvals(x)
    scale = max(1.0, float(np.abs(eigs).max()))
    clusters: list[list[int]] = []
    for idx in range(n):
        for cluster in clusters:
            center = eigs[cluster].mean()
            if np.abs(eigs[idx] - center) <= TOL.cluster_rtol * scale:
                cluster.append(idx)
                break
        else:
            clusters.append([idx])
    clusters.sort(key=len)
    for cluster in clusters:
        if len(cluster) == n:
            continue
        lam = eigs[cluster].mean()
        radius = float(np.abs(eigs[cluster] - lam).max()) if len(cluster) > 1 else 0.0
        shifted = x - lam * np.eye(n)
        _, s, vh = np.linalg.svd(shifted)
        cut = max(TOL.rank_rtol * max(s[0], 1.0), 2.0 * radius)
        null = vh[s <= cut].conj().T
        if 0 < null.shape[1] < n:
            yield null


def _subspace_candidates(rad, comm, ambient_dim: int, rng: np.random.Generator):
    """Candidate proper invariant subspaces, strongest evidence first."""
    if rad:
        image = _column_space(np.hstack(rad))
        if 0 < image.shape[1] < ambient_dim:
            yield "radical_image", image
    candidates = [x for x in comm if not _is_scalar(x)]
    if candidates:
        for _ in range(SIZE.commutant_draws):
            coef = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
            mix = sum(c * m for c, m in zip(coef, comm))
            if not _is_scalar(mix):
                candidates.append(mix)
        for x in candidates:
            for vectors in _eigenspace_candidates(x):
                yield "commutant_eigenspace", vectors


def find_invariant_subspace(span: AlgebraSpan) -> SubspaceReport:
    """Produce a proper invariant subspace or certify there is none.

    Discovery order: image of the radical, then eigenspaces of non-scalar
    commutant elements.  Any candidate is re-verified against the original
    generators before being returned.  When nothing is found the span must
    be all of M_N; that cross-check failing is an implementation bug, not
    an input condition, and raises accordingly.
    """
    rng = np.random.default_rng(0)
    found_any = False
    n = span.ambient_dim
    for kind, vectors in _subspace_candidates(radical(span), commutant(span), n, rng):
        found_any = True
        resid = _invariance_residual(span.generators, vectors)
        if resid <= TOL.invariance_atol:
            return SubspaceReport(kind=kind, basis=vectors, verified=True, residual=resid)
    if found_any:
        raise InternalInconsistencyError(
            "discovered invariant subspaces failed generator re-verification"
        )
    if span.dim != n * n:
        raise InternalInconsistencyError(
            f"no invariant subspace found but dim {span.dim} != {n * n}"
        )
    return SubspaceReport(
        kind="none",
        basis=np.zeros((n, 0), dtype=complex),
        verified=True,
        residual=0.0,
    )


def is_transitive(span: AlgebraSpan) -> bool:
    """True iff the span has no proper invariant subspace (iff dim = N^2)."""
    report = find_invariant_subspace(span)
    full = span.dim == span.ambient_dim**2
    if (report.kind == "none") != full:
        raise InternalInconsistencyError(
            "subspace search and dimension count disagree on transitivity"
        )
    return report.kind == "none"


# -- k-fold transitivity -------------------------------------------------------


def _blocks_scalar(projection: np.ndarray, k: int, n: int) -> bool:
    """Whether every N x N block of the projection is a scalar multiple of I."""
    for i in range(k):
        for j in range(k):
            block = projection[i * n : (i + 1) * n, j * n : (j + 1) * n]
            c = np.trace(block) / n
            if np.abs(block - c * np.eye(n)).max() > TOL.invariance_atol:
                return False
    return True


def _discover_verified_subspaces(rad, comm, generators, ambient_dim: int, rng):
    """All distinct verified proper invariant subspaces the sampler can see."""
    return [
        vectors
        for _, vectors in _subspace_candidates(rad, comm, ambient_dim, rng)
        if _invariance_residual(generators, vectors) <= TOL.invariance_atol
    ]


def kfold_transitive(
    span: AlgebraSpan, k: int, rng: np.random.Generator | None = None
) -> bool:
    """Decide k-fold transitivity by two independent routes.

    Route one inspects the lattice of the ampliation {I_k tensor B}, whose
    commutant M_k(A') and radical I_k tensor rad(A) come from the span's own:
    the span is k-fold transitive exactly when every discovered invariant
    subspace has a projection whose N x N blocks are all scalar.  Route two
    samples k-tuples of independent vectors (the standard-basis tuple plus
    random draws) and checks the orbit span has full dimension kN; a single
    deficient tuple is an exact certificate of failure.  A certified
    failure combined with a route-one pass falsifies the implementation.
    """
    n = span.ambient_dim
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(0) if rng is None else rng

    comm = commutant(span)
    # k^2 dim(A') candidate matrices in M_kN
    _require_fits(16 * k**4 * len(comm) * n**2, f"M_{k} of a {len(comm)}-dimensional commutant")
    eye_k = np.eye(k, dtype=complex)
    units = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
    subspaces = _discover_verified_subspaces(
        [np.kron(eye_k, r) for r in radical(span)],
        [np.kron(e, c) for e in units for c in comm],
        tuple(np.kron(eye_k, g) for g in span.generators),
        k * n,
        rng,
    )
    if not subspaces and span.dim != (k * n) ** 2:
        # nothing found although the ampliation cannot be all of M_{kN}
        raise InternalInconsistencyError(
            "ampliation subspace discovery came back empty on a proper algebra"
        )
    route_lattice = all(_blocks_scalar(v @ v.conj().T, k, n) for v in subspaces)

    tuples = [np.eye(n, k, dtype=complex)]
    draws = 0
    while draws < SIZE.orbit_tuples:
        xi = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        if np.linalg.matrix_rank(xi) == k:
            tuples.append(xi)
            draws += 1
    orbit_full = True
    for xi in tuples:
        stack = np.array([(b @ xi).ravel() for b in span.basis])
        if _rank(np.linalg.svd(stack, compute_uv=False)) < k * n:
            orbit_full = False
            break

    if not orbit_full and route_lattice:
        raise InternalInconsistencyError(
            "orbit sampling certified a deficient tuple but the ampliation "
            "lattice route judged the span k-fold transitive"
        )
    return route_lattice and orbit_full
