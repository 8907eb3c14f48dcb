"""Structure of matrix algebras: closure, commutant, radical, invariant
subspaces, and transitivity decisions.

A unital subalgebra of M_N either acts without proper invariant subspaces,
in which case it is all of M_N, or it leaves a subspace invariant that can
be produced constructively: the image of the trace radical when the algebra
is not semisimple, or an eigenspace of a non-scalar commutant element
otherwise.  Both discovery routes re-verify their answer against the raw
generators, and the "no subspace" branch cross-checks dim = N^2, so a wrong
decision surfaces as a hard internal failure instead of a quiet wrong
boolean.  The k-fold transitivity decision reads the ampliation lattice
and stops at the first subspace that answers False; a lattice pass is
confirmed by an independent route (orbit sampling), and a certified
disagreement is treated the same way.

The closure multiplies only the directions each round added.  A span
computes its commutant, radical, radical image and generator scales once
each, when they are first read.  The subspace search offers the radical
image before it asks for the commutant, so a non-semisimple algebra is
answered without forming its commutant; the k-fold decision reads the
ampliation's radical image and scales off the span's own.  A candidate
subspace is accepted or refused from the Frobenius norm of its residual
where that settles the spectral-norm test, so an SVD is taken only in the
band between.  The commutant is solved from the generators alone; the
orbit route draws its tuples in one call and checks them in one batched
SVD.  A tall matrix whose left singular vectors are not needed is
decomposed through its QR factor, which gives the same bits.
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
    itself checks only that the basis is trace-orthonormal (trace(b_i^* b_j)
    = delta_ij) and holds the identity, and that there is a generator.
    Commutant and invariance checks read only the generators, so a span
    built by hand answers for its generators, not its basis.
    closure_residual is the largest relative residual of close_algebra's
    final left products; gap_flagged marks a borderline singular-value cut.
    The commutant and radical properties hold the module functions'
    answers, radical_image the column space of the stacked radical and
    scales max(1, ||g||_2) per generator; each is computed on first read,
    once per span, and read only.
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
        if np.linalg.norm(resid) > INVARIANCE_ATOL * np.sqrt(n):
            raise DomainError("identity does not lie in the span")
        if not self.generators:
            raise DomainError("algebra span needs at least one generator")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def rows(self) -> np.ndarray:
        """The basis elements, row-major flattened, as read-only rows."""
        rows = np.array([b.ravel() for b in self.basis])
        rows.flags.writeable = False
        return rows

    @cached_property
    def commutant(self) -> tuple[np.ndarray, ...]:
        return _read_only(commutant(self))

    @cached_property
    def radical(self) -> tuple[np.ndarray, ...]:
        return _read_only(radical(self))

    @cached_property
    def radical_image(self) -> np.ndarray:
        """Orthonormal columns spanning the images of the radical's elements."""
        rad = self.radical
        image = _column_space(np.hstack(rad)) if rad else np.zeros((self.ambient_dim, 0), complex)
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
                ambient_dim=n,
                basis=tuple(mats),
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
    # rows >= cols always holds here, so the reduced SVD still returns the
    # complete right-singular set
    _, s, vh = np.linalg.svd(_reduce_tall(system), full_matrices=False)
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


def _outside_parts(generators, vectors: np.ndarray):
    """(I - VV^*) g V per generator: the part of g*V sticking out of span(V)."""
    for g in generators:
        gv = g @ vectors
        yield gv - vectors @ (vectors.conj().T @ gv)


def _invariance_residual(generators, scales, vectors: np.ndarray) -> float:
    """Worst relative spectral norm of the parts of g*V outside span(V)."""
    parts = zip(_outside_parts(generators, vectors), scales)
    return max([0.0, *(float(np.linalg.norm(out, 2)) / scale for out, scale in parts)])


# relative room for rounding in the Frobenius shortcuts, so that only a norm
# far inside or outside the bound skips the spectral norm
_NORM_SLACK = 1e-12


def _is_invariant(generators, scales, vectors: np.ndarray) -> bool:
    """Whether every generator maps span(V) into itself within tolerance.

    The test is ||R||_2 <= INVARIANCE_ATOL for each outside part R over its
    generator's scale, with m columns.  Since ||R||_2 <= ||R||_F <= sqrt(m)
    ||R||_2, the cheap Frobenius norm settles it outside the band between
    bound and sqrt(m) bound; only a norm inside the band takes an SVD.  R is
    divided before any norm, which would overflow for a generator near 1e200.
    """
    root_m = np.sqrt(vectors.shape[1])
    for out, scale in zip(_outside_parts(generators, vectors), scales):
        out = out / scale
        fro = float(np.linalg.norm(out))
        if fro <= INVARIANCE_ATOL * (1.0 - _NORM_SLACK):
            continue
        if fro > root_m * INVARIANCE_ATOL * (1.0 + _NORM_SLACK):
            return False
        if float(np.linalg.norm(out, 2)) > INVARIANCE_ATOL:
            return False
    return True


def _column_space(matrix: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : _rank(s)]


def _is_scalar(matrix: np.ndarray) -> bool:
    n = matrix.shape[0]
    c = np.trace(matrix) / n
    return bool(
        np.abs(matrix - c * np.eye(n)).max()
        <= RANK_RTOL * max(1.0, float(np.abs(matrix).max()))
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


def _subspace_candidates(image, commutant_basis, rng: np.random.Generator):
    """Candidate proper invariant subspaces, strongest evidence first.

    The radical image comes first; commutant_basis() is called only after
    it.  A random commutant mix is kept as drawn: a scalar one yields none.
    """
    if 0 < image.shape[1] < image.shape[0]:
        yield "radical_image", image
    comm = commutant_basis()
    candidates = [x for x in comm if not _is_scalar(x)]
    if candidates:
        for _ in range(COMMUTANT_DRAWS):
            coef = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
            candidates.append(sum(c * m for c, m in zip(coef, comm)))
        for x in candidates:
            for vectors in _eigenspace_candidates(x):
                yield "commutant_eigenspace", vectors


def find_invariant_subspace(span: AlgebraSpan) -> SubspaceReport:
    """Produce a proper invariant subspace or certify there is none.

    Discovery order: image of the radical, then eigenspaces of non-scalar
    commutant elements; the commutant is formed only when the radical image
    is not a verified proper invariant subspace, so a non-semisimple algebra
    is answered without it.  Any candidate is re-verified against the
    original generators before being returned.  When nothing is found the
    span must be all of M_N; that cross-check failing is an implementation
    bug, not an input condition, and raises accordingly.
    """
    rng = np.random.default_rng(0)
    found_any = False
    n = span.ambient_dim
    gens, scales = span.generators, span.scales
    candidates = _subspace_candidates(span.radical_image, lambda: span.commutant, rng)
    for kind, vectors in candidates:
        found_any = True
        if _is_invariant(gens, scales, vectors):
            resid = _invariance_residual(gens, scales, vectors)
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


# -- k-fold transitivity -------------------------------------------------------


def _blocks_scalar(projection: np.ndarray, k: int, n: int) -> bool:
    """Whether every N x N block of the projection is a scalar multiple of I."""
    blocks = projection.reshape(k, n, k, n).swapaxes(1, 2)
    c = np.trace(blocks, axis1=2, axis2=3) / n
    return bool(np.abs(blocks - c[:, :, None, None] * np.eye(n)).max() <= INVARIANCE_ATOL)


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

    The lattice route inspects the ampliation {I_k tensor B}, whose
    commutant M_k(A') and radical image C^k tensor im rad(A) come from the
    span's own, as do its generator scales, since ||I_k tensor g||_2 =
    ||g||_2: the span is k-fold transitive exactly when every discovered
    invariant subspace has a projection whose N x N blocks are all scalar.
    It walks the verified subspaces as the sampler yields them and stops at
    the first non-scalar block, since no later subspace can change that
    False.  The size cap on M_k(A') is checked before any work, but its
    k^2 dim(A') elements are built only when the radical image leaves the
    answer open.  The lattice route runs on every call; the orbit route
    confirms every lattice pass.  It checks, in one batched SVD, that the
    orbits of the standard-basis k-tuple and of ORBIT_TUPLES complex
    Gaussian k-tuples, drawn in one call and independent with probability
    one, span all of C^{N x k}.  A single deficient tuple is an exact
    certificate of failure, so one next to a lattice pass falsifies the
    implementation.
    """
    n = span.ambient_dim
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(0) if rng is None else rng

    comm = span.commutant
    # k^2 dim(A') candidate matrices in M_kN
    require_fits(16 * k**4 * len(comm) * n**2, f"M_{k} of a {len(comm)}-dimensional commutant")
    eye_k = np.eye(k, dtype=complex)
    units = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
    gens = tuple(np.kron(eye_k, g) for g in span.generators)
    candidates = _subspace_candidates(
        np.kron(eye_k, span.radical_image),
        lambda: [np.kron(e, c) for e in units for c in comm],
        rng,
    )
    found_any = False
    for _, vectors in candidates:
        if _is_invariant(gens, span.scales, vectors):
            if not _blocks_scalar(vectors @ vectors.conj().T, k, n):
                return False
            found_any = True
    if not found_any and span.dim != (k * n) ** 2:
        # nothing found although the ampliation cannot be all of M_{kN}
        raise InternalInconsistencyError(
            "ampliation subspace discovery came back empty on a proper algebra"
        )

    # each draw takes its real part, then its imaginary part
    parts = rng.standard_normal((ORBIT_TUPLES, 2, n, k))
    tuples = np.concatenate([np.eye(n, k, dtype=complex)[None], parts[:, 0] + 1j * parts[:, 1]])
    if not _orbits_full(span.rows.reshape(span.dim, n, n), tuples):
        raise InternalInconsistencyError(
            "orbit sampling certified a deficient tuple but the ampliation "
            "lattice route judged the span k-fold transitive"
        )
    return True
