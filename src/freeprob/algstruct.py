"""Structure of matrix algebras: closure, commutant, radical, invariant
subspaces, and transitivity decisions.

A unital subalgebra of M_N either acts without proper invariant subspaces,
in which case it is all of M_N, or it leaves a subspace invariant that can
be produced constructively: the image of the trace radical when the algebra
is not semisimple, or an eigenspace of a non-scalar commutant element
otherwise.  A wrong decision surfaces as a hard internal failure instead of
a quiet wrong boolean, and a k-fold pass is confirmed by an independent
route (orbit sampling).

One walk yields the re-verified invariant subspaces of the ampliation
{I_k tensor B}, and transitivity is its k = 1 case: the report is its first
subspace, and k-fold transitivity fails at the first whose projection has
a non-scalar N x N block.  It offers the radical image before it asks for
the commutant, so a non-semisimple algebra is answered without forming the
commutant, and it reads the ampliation's radical image, commutant and
scales off the span's own.  It raises if a candidate was found but none
verified, or if none was found although the algebra is not all of M_kN.
The closure multiplies only the directions each round added.  A span
computes its commutant, radical, radical image and generator scales once
each, when first read, and holds its basis once, as one read-only array
that its flattened rows view.  The commutant is solved from the generators
alone; the orbit route checks its tuples in one batched SVD.  A tall
matrix whose left singular vectors are not needed is decomposed through
its QR factor, which gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import require_fits
from .errors import DimensionMismatchError, DomainError, InternalInconsistencyError

__all__ = [
    "SubspaceReport",
    "close_algebra",
    "commutant",
    "radical",
    "find_invariant_subspace",
    "kfold_transitive",
]

# rank and membership decisions: a singular value at or below RANK_RTOL
# times the scale counts as zero, and a kept-to-dropped ratio below
# GAP_FLAG_RATIO flags the cut as borderline
RANK_RTOL = 1e-9
GAP_FLAG_RATIO = 10.0
# residual ceiling for the structural identities: identity in the span,
# invariant subspaces, scalar blocks of a projection
INVARIANCE_ATOL = 1e-9
# relative spread of the eigenvalues merged into one eigenspace of a
# commutant element
CLUSTER_RTOL = 1e-7
# random commutant combinations fed to subspace discovery
COMMUTANT_DRAWS = 3
# orbit-sampling budget for the multi-vector transitivity test
ORBIT_TUPLES = 32

# -- span plumbing -----------------------------------------------------------


def _rank(s: np.ndarray, scale: float | None = None) -> int:
    """Numerical rank from descending singular values, cut at RANK_RTOL * scale
    (by default the largest singular value)."""
    if s.size == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * (s[0] if scale is None else scale)))


def _reduce_tall(stack: np.ndarray) -> np.ndarray:
    """A matrix, or stack of them, with the same singular values and right
    singular vectors, bit for bit, and no more rows than it needs.

    LAPACK's SVD (gesdd) replaces a matrix with at least 17/9 as many rows
    as columns by the triangular factor of its QR decomposition before
    anything else; taking that step here spares it forming the left
    singular vectors, which no caller reads.
    """
    rows, cols = stack.shape[-2:]
    return np.linalg.qr(stack, mode="r") if rows >= int(cols * 17 / 9) else stack


def _orthonormal_rows(
    stack: np.ndarray, scale: float | None = None
) -> tuple[np.ndarray, bool]:
    """Orthonormal row basis of the row space, with borderline-gap flag.

    The rank cut is RANK_RTOL * scale, by default RANK_RTOL times the
    largest singular value.  If the ratio between the smallest kept and
    largest dropped singular value is below GAP_FLAG_RATIO the rank cut is
    ambiguous and gets flagged.
    """
    if stack.size == 0:
        return stack.reshape(0, stack.shape[-1]), False
    _, s, vh = np.linalg.svd(_reduce_tall(stack), full_matrices=False)
    rank = _rank(s, scale)
    # compared by product: an exact zero s[rank] must not be divided by
    flagged = 0 < rank < s.size and s[rank - 1] < GAP_FLAG_RATIO * s[rank]
    return vh[:rank], bool(flagged)


def _unit(g: np.ndarray) -> np.ndarray:
    """g over its 2-norm, or the zero g itself: either generates what g does,
    and no rank cut reads its scale."""
    norm = float(np.linalg.norm(g, 2))
    return g / norm if norm > 0.0 else g


def _project_off(prows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """prows minus their components along the orthonormal rows."""
    return prows - (prows @ rows.conj().T) @ rows


def _read_only(matrices) -> tuple[np.ndarray, ...]:
    for m in matrices:
        m.flags.writeable = False
    return tuple(matrices)


@dataclass(frozen=True, eq=False)
class AlgebraSpan:
    """Unital algebra presented by a trace-orthonormal basis.

    close_algebra is the only supported constructor: it makes the basis
    span exactly the algebra the generators generate.  The constructor
    itself checks only that the basis, a (dim, N, N) array it keeps as a
    read-only view, is trace-orthonormal (trace(b_i^* b_j) = delta_ij) and
    holds the identity, and that there is a generator.  Commutant and
    invariance checks read only the generators, so a span built by hand
    answers for its generators, not its basis.  closure_residual is the
    largest relative residual of close_algebra's final left products;
    gap_flagged marks a borderline singular-value cut.  The commutant and
    radical properties hold the module functions' answers, radical_image
    the column space of the stacked radical and scales max(1, ||g||_2) per
    generator; each is computed on first read, once per span, and read only.
    """

    basis: np.ndarray
    generators: tuple[np.ndarray, ...]
    closure_residual: float = 0.0
    gap_flagged: bool = False

    def __post_init__(self) -> None:
        # a view, so that marking it read-only leaves the caller's array alone
        basis = np.ascontiguousarray(self.basis, dtype=complex).view()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        if len(basis) == 0:
            raise DomainError("algebra span needs at least one basis element")
        n, rows = self.ambient_dim, self.rows
        gram = rows.conj() @ rows.T
        if np.abs(gram - np.eye(self.dim)).max() > 1e-8:
            raise DomainError("basis is not trace-orthonormal")
        ident = np.eye(n, dtype=complex).ravel()
        resid = ident - rows.T @ (rows.conj() @ ident)
        if np.linalg.norm(resid) > INVARIANCE_ATOL * np.sqrt(n):
            raise DomainError("identity does not lie in the span")
        if not self.generators:
            raise DomainError("algebra span needs at least one generator")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def rows(self) -> np.ndarray:
        """The basis elements, row-major flattened: a read-only view."""
        return self.basis.reshape(self.dim, -1)

    @cached_property
    def commutant(self) -> tuple[np.ndarray, ...]:
        return _read_only(commutant(self))

    @cached_property
    def radical(self) -> tuple[np.ndarray, ...]:
        return _read_only(radical(self))

    @cached_property
    def radical_image(self) -> np.ndarray:
        """Orthonormal columns spanning the images of the radical's elements."""
        # the empty block gives a semisimple span an empty (N, 0) image
        stacked = np.hstack([np.zeros((self.ambient_dim, 0), complex), *self.radical])
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        image = u[:, : _rank(s)]
        image.flags.writeable = False
        return image

    @cached_property
    def scales(self) -> tuple[float, ...]:
        """max(1, ||g||_2) per generator, the scale of its invariance residual."""
        return tuple(max(1.0, float(np.linalg.norm(g, 2))) for g in self.generators)


def close_algebra(generators) -> AlgebraSpan:
    """Smallest unital algebra containing the generators.

    A unital span closed under left products g @ b, g in (I,) + generators,
    holds every word in them, so it is the algebra.  The span starts from an
    orthonormal basis of (I,) + generators, each nonzero one scaled to unit
    2-norm, and grows in rounds.  The products of older directions were
    taken in earlier rounds, and the identity maps a direction to itself, so
    each round multiplies only the directions the previous one added, by the
    scaled generators.  It projects the products off the current basis
    twice and adds the right singular vectors of that residual whose
    singular values pass the rank cut, projected off the basis once more,
    since a direction near the cut carries rounding from the larger singular
    values.  The rank cut is RANK_RTOL * max(1, largest product norm of the
    round): a product that sticks out of the span by less than RANK_RTOL of
    its norm is rounding.  The gap flag compares the residual's smallest
    kept and largest dropped singular values.  When a round adds nothing,
    the closure residual is the largest relative residual over every left
    product of the final basis by (I,) + scaled generators.  At least one
    generator is needed, since the first one fixes N; the scalars of
    M_N are close_algebra([I]).  Before any work, the span's commutant
    system, one N^2 x N^2 block per generator, and its SVD factor must fit
    the size cap.
    """
    gens = tuple(np.asarray(g, dtype=complex) for g in generators)
    if not gens:
        raise DomainError("need at least one generator")
    for g in gens:
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatchError(f"generator has shape {g.shape}")
    dims = {g.shape[0] for g in gens}
    if len(dims) > 1:
        raise DimensionMismatchError(f"generators of mixed sizes {sorted(dims)}")
    n = gens[0].shape[0]
    if n < 1:
        raise DomainError("ambient dimension must be positive")
    # commutant system len(gens) N^2 x N^2 complex, plus its SVD factor
    require_fits(16 * (len(gens) + 1) * n**4, f"commutant of {len(gens)} generators in M_{n}")

    # the span keeps the generators as given, for the invariance checks
    left = np.stack((np.eye(n, dtype=complex), *map(_unit, gens)))
    rows, flagged = _orthonormal_rows(left.reshape(len(left), n * n))
    fresh = rows
    # each round either grows the span or certifies closure
    for _ in range(n * n + 1):
        prows = (left[1:, None] @ fresh.reshape(-1, n, n)).reshape(-1, n * n)
        scale = max(1.0, float(np.linalg.norm(prows, axis=1).max()))
        resid = _project_off(_project_off(prows, rows), rows)
        fresh, pflag = _orthonormal_rows(resid, scale)
        flagged = flagged or pflag
        if len(fresh) == 0:
            mats = rows.reshape(-1, n, n)
            worst = 0.0
            # one multiplier at a time, so one block of products is held
            for g in left:
                p = (g @ mats).reshape(-1, n * n)
                rel = np.linalg.norm(_project_off(p, rows), axis=1) / np.maximum(
                    np.linalg.norm(p, axis=1), 1.0
                )
                worst = max(worst, float(rel.max()))
            return AlgebraSpan(
                basis=mats,
                generators=gens,
                closure_residual=worst,
                gap_flagged=flagged,
            )
        fresh = _project_off(fresh, rows)
        rows = np.vstack([rows, fresh])
    raise InternalInconsistencyError(
        "algebra closure failed to stabilize within the dimension bound"
    )


# -- commutant and radical ---------------------------------------------------


def _null_rows(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace basis, one vector per row, of a matrix with at
    least as many rows as columns, so that the reduced SVD returns the
    complete right-singular set."""
    _, s, vh = np.linalg.svd(_reduce_tall(matrix), full_matrices=False)
    return vh[_rank(s) :].conj()


def commutant(span: AlgebraSpan) -> list[np.ndarray]:
    """Trace-orthonormal basis of {X : XB = BX for every B in the span}.

    A unital algebra has its generators' commutant: the identity commutes
    with every X, so its block would be zero.  Row-major vectorization turns
    X -> Xg - gX into kron(I, g^T) - kron(g, I); the commutant is the
    nullspace stacked over the generators, each scaled to unit 2-norm so
    that no block drowns another.
    """
    n = span.ambient_dim
    eye = np.eye(n, dtype=complex)
    units = map(_unit, span.generators)
    system = np.vstack([np.kron(eye, g.T) - np.kron(g, eye) for g in units])
    return [row.reshape(n, n) for row in _null_rows(system)]


def radical(span: AlgebraSpan) -> list[np.ndarray]:
    """Trace-orthonormal basis of {x in span : trace(x b) = 0 for all b}.

    Over the complex field this trace-form kernel is the Jacobson radical
    of the matrix algebra, so every returned element is nilpotent.
    """
    rows = span.rows
    # bilinear trace(b_i b_j) = vec(b_i) . vec(b_j^T), not sesquilinear
    gram = rows @ span.basis.transpose(0, 2, 1).reshape(span.dim, -1).T
    coef, _ = _orthonormal_rows(_null_rows(gram))
    n = span.ambient_dim
    return [(c @ rows).reshape(n, n) for c in coef]


# -- invariant subspaces -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubspaceReport:
    """Outcome of invariant-subspace discovery.

    kind is "none", "radical_image", or "commutant_eigenspace"; basis holds
    orthonormal column vectors spanning the subspace (shape (N, m), empty
    for kind "none"); every returned subspace was verified against the
    original generators, and residual is the worst relative part of their
    images left outside it (0.0 for kind "none").
    """

    kind: str
    basis: np.ndarray
    residual: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "residual": self.residual,
            "basis": [
                [[float(z.real), float(z.imag)] for z in self.basis[:, j]]
                for j in range(self.basis.shape[1])
            ],
        }


def _outside_parts(generators, vectors: np.ndarray):
    """(I - VV^*) g V per generator: the part of g*V sticking out of span(V)."""
    for g in generators:
        gv = g @ vectors
        yield gv - vectors @ (vectors.conj().T @ gv)


def _invariance_residual(generators, scales, vectors: np.ndarray) -> float:
    """Worst relative spectral norm of the parts of g*V outside span(V).

    span(V) counts as invariant when this is at most INVARIANCE_ATOL.  The
    SVD behind the norm first scales a matrix whose entries pass LAPACK's
    safe range, so a generator near 1e200 does not overflow it.
    """
    parts = zip(_outside_parts(generators, vectors), scales)
    return max([0.0, *(float(np.linalg.norm(out, 2)) / scale for out, scale in parts)])


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
    centers: list[complex] = []
    for idx in range(n):
        for pos, cluster in enumerate(clusters):
            if np.abs(eigs[idx] - centers[pos]) <= CLUSTER_RTOL * scale:
                cluster.append(idx)
                centers[pos] = eigs[cluster].mean()
                break
        else:
            clusters.append([idx])
            centers.append(eigs[idx])
    for cluster, lam in sorted(zip(clusters, centers), key=lambda pair: len(pair[0])):
        if len(cluster) == n:
            continue
        radius = float(np.abs(eigs[cluster] - lam).max()) if len(cluster) > 1 else 0.0
        shifted = x - lam * np.eye(n)
        _, s, vh = np.linalg.svd(shifted)
        cut = max(RANK_RTOL * max(s[0], 1.0), 2.0 * radius)
        null = vh[s <= cut].conj().T
        if 0 < null.shape[1] < n:
            yield null


def _blocks_scalar(matrix: np.ndarray, k: int) -> bool:
    """Whether every block of the matrix's k x k partition is a multiple of I."""
    n = len(matrix) // k
    blocks = matrix.reshape(k, n, k, n).swapaxes(1, 2)
    c = np.trace(blocks, axis1=2, axis2=3) / n
    return bool(np.abs(blocks - c[:, :, None, None] * np.eye(n)).max() <= INVARIANCE_ATOL)


def _invariant_subspaces(span: AlgebraSpan, k: int, rng: np.random.Generator):
    """(kind, vectors, residual) for each verified proper invariant subspace
    of the ampliation {I_k tensor B}, strongest evidence first.

    The candidates are the radical image C^k tensor im rad(A), when proper,
    then the eigenspaces of each non-scalar element of M_k(A') and of
    COMMUTANT_DRAWS random mixes of them all, kept as drawn: a scalar mix
    yields none.  The commutant is read only after the radical image is
    offered.  A candidate is yielded when its invariance residual against
    the generators I_k tensor g, whose scales are the span's own, is within
    INVARIANCE_ATOL; at k = 1 each kron copies its factor.  When the
    candidates run out, the walk raises if one was found but none verified,
    or if none was found although dim(A) != (kN)^2, since only M_kN has no
    proper invariant subspace.
    """
    kn = k * span.ambient_dim
    eye_k = np.eye(k, dtype=complex)
    gens = tuple(np.kron(eye_k, g) for g in span.generators)

    def candidates():
        image = np.kron(eye_k, span.radical_image)
        if 0 < image.shape[1] < kn:
            yield "radical_image", image
        units = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
        comm = [np.kron(e, c) for e in units for c in span.commutant]
        probes = [x for x in comm if not _blocks_scalar(x, 1)]
        for _ in range(COMMUTANT_DRAWS if probes else 0):
            coef = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
            probes.append(sum(c * m for c, m in zip(coef, comm)))
        for x in probes:
            for vectors in _eigenspace_candidates(x):
                yield "commutant_eigenspace", vectors

    found = verified = False
    for kind, vectors in candidates():
        found = True
        resid = _invariance_residual(gens, span.scales, vectors)
        if resid <= INVARIANCE_ATOL:
            verified = True
            yield kind, vectors, resid
    if found and not verified:
        raise InternalInconsistencyError(
            "discovered invariant subspaces failed generator re-verification"
        )
    if not found and span.dim != kn * kn:
        raise InternalInconsistencyError(
            f"no invariant subspace found but dim {span.dim} != {kn * kn}"
        )


def find_invariant_subspace(span: AlgebraSpan) -> SubspaceReport:
    """Produce a proper invariant subspace or certify there is none.

    This is the invariant-subspace walk at k = 1: the report is the first
    subspace it yields, verified against the original generators, or
    "none" when it yields nothing and the span is all of M_N.  The walk's
    InternalInconsistencyError, for a candidate that fails re-verification
    with no other passing or for dim != N^2 with nothing found, marks an
    implementation bug, not an input condition.
    """
    n = span.ambient_dim
    kind, vectors, resid = next(
        _invariant_subspaces(span, 1, np.random.default_rng(0)),
        ("none", np.zeros((n, 0), dtype=complex), 0.0),
    )
    return SubspaceReport(kind=kind, basis=vectors, residual=resid)


# -- k-fold transitivity -------------------------------------------------------


def _orbits_full(basis: np.ndarray, tuples: np.ndarray) -> bool:
    """Whether {B xi : B in the basis} spans all of C^{N x k} for every tuple xi."""
    _, n, k = tuples.shape
    stacks = (basis @ tuples[:, None]).reshape(len(tuples), len(basis), n * k)
    s = np.linalg.svd(_reduce_tall(stacks), compute_uv=False)
    return all(_rank(row) == n * k for row in s)


def kfold_transitive(
    span: AlgebraSpan, k: int, rng: np.random.Generator | None = None
) -> bool:
    """Decide k-fold transitivity on the ampliation lattice, and confirm a
    pass by orbit sampling.

    The lattice route is the invariant-subspace walk at k: the span is
    k-fold transitive exactly when every verified invariant subspace of
    {I_k tensor B} has a projection whose N x N blocks are all scalar, so
    the route answers False at the first non-scalar block.  The walk raises
    under the same rule as at k = 1; for k >= 2, dim(A) <= N^2 < (kN)^2, so
    finding nothing is a bug.  The size cap on M_k(A') is checked before
    any work, but its k^2 dim(A') elements are built only when the radical
    image leaves the answer open.  The orbit route confirms every lattice
    pass.  It checks, in one batched SVD, that the orbits of the
    standard-basis k-tuple and of ORBIT_TUPLES complex Gaussian k-tuples,
    drawn in one call and independent with probability one, span all of
    C^{N x k}.  A single deficient tuple is an exact certificate of
    failure, so one next to a lattice pass falsifies the implementation.
    """
    n = span.ambient_dim
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(0) if rng is None else rng

    comm = span.commutant
    # k^2 dim(A') candidate matrices in M_kN
    require_fits(16 * k**4 * len(comm) * n**2, f"M_{k} of a {len(comm)}-dimensional commutant")
    walk = _invariant_subspaces(span, k, rng)
    if any(not _blocks_scalar(v @ v.conj().T, k) for _, v, _ in walk):
        return False

    # each draw takes its real part, then its imaginary part
    parts = rng.standard_normal((ORBIT_TUPLES, 2, n, k))
    tuples = np.concatenate([np.eye(n, k, dtype=complex)[None], parts[:, 0] + 1j * parts[:, 1]])
    if not _orbits_full(span.basis, tuples):
        raise InternalInconsistencyError(
            "orbit sampling certified a deficient tuple but the ampliation "
            "lattice route judged the span k-fold transitive"
        )
    return True
