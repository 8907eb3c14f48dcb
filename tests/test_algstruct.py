"""Algebra closure, commutant, radical, and transitivity decisions.

The recurring oracle is Burnside: a unital subalgebra of M_N with no proper
invariant subspace must be all of M_N, so subspace discovery can always be
cross-checked against a dimension count.
"""

import tracemalloc

import numpy as np
import pytest

from freeprob import algstruct, config
from freeprob.acceptance import _random_algebra_generators
from freeprob.algstruct import (
    AlgebraSpan,
    _reduce_tall,
    close_algebra,
    commutant,
    find_invariant_subspace,
    kfold_transitive,
    radical,
)
from freeprob.config import MAX_SYSTEM_BYTES
from freeprob.errors import DimensionMismatchError, DomainError
from freeprob.matmodel import derive_rng, haar_unitary

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)
N3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)


@pytest.fixture(scope="module")
def m2():
    return close_algebra([E12, E21])


@pytest.fixture(scope="module")
def diag3():
    return close_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)])


@pytest.fixture(scope="module")
def upper2():
    return close_algebra([E11, E12])


@pytest.fixture(scope="module")
def jordan3():
    return close_algebra([N3])


@pytest.fixture(scope="module")
def trivial3():
    return close_algebra([np.eye(3, dtype=complex)])


def random_generators(rng, n, kind):
    if kind == 0:
        return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    if kind == 1:
        return [np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))]
    a = np.zeros((n, n), dtype=complex)
    a[np.triu_indices(n, 1)] = rng.standard_normal(n * (n - 1) // 2)
    return [a, np.diag(rng.standard_normal(n)).astype(complex)]


def in_span(span, x):
    """Whether x lies in the span: adding it as a generator keeps the dimension."""
    return close_algebra([*span.generators, x]).dim == span.dim


class TestCloseAlgebra:
    def test_single_nilpotent(self):
        assert close_algebra([E12]).dim == 2

    def test_matrix_units_generate_everything(self, m2):
        assert m2.dim == 4

    def test_jordan_block(self, jordan3):
        assert jordan3.dim == 3

    def test_closure_residual_tiny(self, m2, jordan3):
        assert m2.closure_residual <= 1e-9
        assert jordan3.closure_residual <= 1e-9

    def test_identity_in_span(self, jordan3):
        assert in_span(jordan3, np.eye(3, dtype=complex))
        assert not in_span(jordan3, N3.T)

    def test_basis_trace_orthonormal(self, m2):
        rows = np.array([b.ravel() for b in m2.basis])
        gram = rows.conj() @ rows.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-10

    def test_empty_generators(self):
        with pytest.raises(DomainError):
            close_algebra([])

    def test_identity_generates_the_scalars(self, trivial3):
        assert trivial3.dim == 1 and trivial3.ambient_dim == 3
        # the stack (I, I) has an exact zero singular value past the rank
        span = close_algebra([np.eye(9, dtype=complex)])
        assert span.dim == 1 and not span.gap_flagged

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([E12, np.eye(3, dtype=complex)])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([np.zeros((2, 3))])

    def test_two_haar_unitaries_generate(self):
        # generically two independent unitaries generate all of M_5
        for seed in range(20):
            span = close_algebra(
                [
                    haar_unitary(5, derive_rng(seed, "gen-a")),
                    haar_unitary(5, derive_rng(seed, "gen-b")),
                ]
            )
            assert span.dim == 25
            assert find_invariant_subspace(span).kind == "none"

    @pytest.mark.parametrize("delta, dim", [(1e-8, 4), (1e-11, 3)])
    def test_product_sticking_out_by_delta(self, delta, dim):
        # span(I, E12, E33 + delta E23) has no small direction, but the left
        # product E12 (E33 + delta E23) = delta E13 leaves it by a relative
        # delta: above the 1e-9 rank cut it is a new direction, below it
        # rounding that only the closure residual shows.  The kept direction
        # is taken from the residual, not from a stack with singular values
        # near 1, so the closure is exact to rounding
        e12, g = np.zeros((2, 3, 3), dtype=complex)
        e12[0, 1] = 1.0
        g[2, 2], g[1, 2] = 1.0, delta
        span = close_algebra([e12, g])
        assert span.dim == dim
        if dim == 4:
            assert span.closure_residual <= 1e-12
        else:
            assert delta <= span.closure_residual <= 2 * delta


class TestCommutant:
    def test_full_algebra_scalars_only(self, m2):
        comm = commutant(m2)
        assert len(comm) == 1
        x = comm[0]
        assert np.abs(x - (np.trace(x) / 2) * np.eye(2)).max() <= 1e-10

    def test_trivial_algebra_everything(self):
        comm = commutant(close_algebra([np.eye(3, dtype=complex)]))
        assert len(comm) == 9

    def test_diagonal_algebra(self, diag3):
        comm = commutant(diag3)
        assert len(comm) == 3
        for x in comm:
            off = x - np.diag(np.diagonal(x))
            assert np.abs(off).max() <= 1e-9

    def test_elements_actually_commute(self, upper2):
        for x in commutant(upper2):
            for b in upper2.basis:
                assert np.abs(x @ b - b @ x).max() <= 1e-9


def test_commutant_and_radical_cached_read_only(upper2):
    assert upper2.commutant is upper2.commutant
    for mats, fresh in ((upper2.commutant, commutant(upper2)), (upper2.radical, radical(upper2))):
        assert len(mats) == len(fresh)
        for m, f in zip(mats, fresh):
            assert np.array_equal(m, f)
            assert not m.flags.writeable
    with pytest.raises(AttributeError):
        upper2.commutant = ()


@pytest.mark.parametrize("rows", [64, 119, 120, 256])
def test_reduce_tall_keeps_singular_bits(rows):
    # at 120 rows and more (17/9 of the 64 columns) LAPACK's SVD starts from
    # the QR factor itself, so reducing first changes no bit of s or vh
    rng = np.random.default_rng(rows)
    a = rng.standard_normal((rows, 64)) + 1j * rng.standard_normal((rows, 64))
    reduced = _reduce_tall(a)
    assert reduced.shape == ((64, 64) if rows >= 120 else a.shape)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    _, s_r, vh_r = np.linalg.svd(reduced, full_matrices=False)
    assert np.array_equal(s, s_r) and np.array_equal(vh, vh_r)
    assert np.array_equal(
        np.linalg.svd(a, compute_uv=False), np.linalg.svd(reduced, compute_uv=False)
    )


def basis_wide_commutant_dim(span):
    """Nullity of the stacked X -> XB - BX over every basis element B."""
    n = span.ambient_dim
    eye = np.eye(n, dtype=complex)
    system = np.vstack([np.kron(eye, b.T) - np.kron(b, eye) for b in span.basis])
    s = np.linalg.svd(system, compute_uv=False)
    return n * n - int(np.sum(s > 1e-9 * max(s[0], 1.0)))


def assert_commutant_pinned(span):
    comm = commutant(span)
    assert len(comm) == basis_wide_commutant_dim(span)
    for x in comm:
        for b in span.basis:
            assert np.abs(x @ b - b @ x).max() <= 1e-9


@pytest.mark.parametrize("name", ["m2", "diag3", "upper2", "jordan3", "trivial3"])
def test_commutant_matches_basis_wide_nullspace_on_fixtures(name, request):
    assert_commutant_pinned(request.getfixturevalue(name))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("family", range(5))
def test_commutant_matches_basis_wide_nullspace_on_families(family, n):
    rng = derive_rng(31, f"commutant-pin-{family}-{n}")
    assert_commutant_pinned(close_algebra(_random_algebra_generators(n, family, rng)))


class TestRadical:
    def test_semisimple_empty(self, m2, diag3):
        assert radical(m2) == []
        assert radical(diag3) == []

    def test_upper_triangular(self, upper2):
        rad = radical(upper2)
        assert len(rad) == 1
        # the strictly-upper corner is the whole radical
        x = rad[0]
        assert abs(abs(x[0, 1]) - 1.0) <= 1e-10
        assert np.abs(x - x[0, 1] * E12).max() <= 1e-10

    def test_jordan_two_dimensional(self, jordan3):
        rad = radical(jordan3)
        assert len(rad) == 2

    def test_radical_elements_nilpotent(self, jordan3, upper2):
        for span in (jordan3, upper2):
            n = span.ambient_dim
            for x in radical(span):
                assert np.abs(np.linalg.matrix_power(x, n)).max() <= 1e-8

    def test_radical_inside_span(self, jordan3):
        for x in radical(jordan3):
            assert in_span(jordan3, x)


class TestFindInvariantSubspace:
    def test_upper_triangular_first_coordinate_line(self, upper2):
        rep = find_invariant_subspace(upper2)
        assert rep.kind == "radical_image"
        assert rep.dimension == 1
        assert rep.verified and rep.residual <= 1e-9
        assert abs(abs(rep.basis[0, 0]) - 1.0) <= 1e-9

    def test_full_algebra_returns_none(self, m2):
        rep = find_invariant_subspace(m2)
        assert rep.kind == "none"
        assert rep.dimension == 0

    def test_identity_plus_nilpotent(self):
        rep = find_invariant_subspace(close_algebra([E12]))
        assert rep.kind != "none"
        assert rep.dimension == 1
        assert abs(abs(rep.basis[0, 0]) - 1.0) <= 1e-9

    def test_semisimple_reducible_uses_commutant(self, diag3):
        rep = find_invariant_subspace(diag3)
        assert rep.kind == "commutant_eigenspace"
        assert 0 < rep.dimension < 3
        assert rep.verified

    def test_reverification_against_raw_generators(self, diag3, upper2):
        for span in (diag3, upper2):
            rep = find_invariant_subspace(span)
            v = rep.basis
            for g in span.generators:
                gv = g @ v
                out = gv - v @ (v.conj().T @ gv)
                assert np.linalg.norm(out, 2) <= 1e-9 * max(1.0, np.linalg.norm(g, 2))

    @pytest.mark.parametrize("a, verified", [(0.9e-9, True), (1.1e-9, False)])
    def test_verification_at_the_spectral_bound(self, a, verified):
        # the radical's image is V = span(e1, e2); g maps e1 -> a e3 and
        # e2 -> a e4, so R = (I - VV^*) g V has ||R||_2 = a and ||R||_F =
        # a sqrt(2) against the bound 1e-9: 0.9e-9 lies between the two
        # Frobenius tests and needs the spectral norm, 1.1e-9 fails
        nil = np.zeros((4, 4), dtype=complex)
        nil[0, 2] = nil[1, 3] = 1.0
        g = np.zeros((4, 4), dtype=complex)
        g[2, 0] = g[3, 1] = a
        span = AlgebraSpan(
            ambient_dim=4,
            basis=(np.eye(4, dtype=complex) / 2, nil / np.sqrt(2)),
            generators=(g,),
        )
        rep = find_invariant_subspace(span)
        assert rep.verified
        if verified:
            assert rep.kind == "radical_image"
            assert rep.residual == pytest.approx(a, rel=1e-12)
            assert np.allclose(rep.basis @ rep.basis.conj().T, np.diag([1, 1, 0, 0]))
        else:
            # V is refused, and another proper invariant subspace is found
            # among the commutant's eigenspaces: span(e3, e4) and span(e1, e3)
            # are both invariant, since g e1 = a e3 and g e3 = 0
            v = rep.basis
            assert rep.kind == "commutant_eigenspace"
            assert 0 < rep.dimension < 4
            assert not np.allclose(v @ v.conj().T, np.diag([1, 1, 0, 0]))
            gv = g @ v
            assert np.linalg.norm(gv - v @ (v.conj().T @ gv), 2) <= 1e-9

    def test_report_json_round_trip(self, upper2):
        payload = find_invariant_subspace(upper2).to_json()
        assert payload["kind"] == "radical_image"
        assert payload["dimension"] == 1
        assert payload["verified"] is True
        assert len(payload["basis"]) == 1
        assert len(payload["basis"][0]) == 2


class TestTransitivity:
    def test_full_true(self, m2):
        assert m2.dim == 4
        assert find_invariant_subspace(m2).kind == "none"

    def test_diagonal_false(self, diag3):
        assert diag3.dim < 9
        assert find_invariant_subspace(diag3).kind != "none"

    def test_burnside_equivalence_sweep(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(2, 7))
            span = close_algebra(random_generators(rng, n, trial % 3))
            rep = find_invariant_subspace(span)
            full = span.dim == n * n
            assert (rep.kind == "none") == full
            if rep.kind != "none":
                assert rep.verified

    def test_transitive_chain(self):
        # transitive => 2-fold transitive => dim N^2, over random instances
        rng = np.random.default_rng(13)
        seen_transitive = 0
        for trial in range(12):
            n = int(rng.integers(2, 5))
            gens = [
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(2)
            ]
            span = close_algebra(gens)
            if find_invariant_subspace(span).kind == "none":
                seen_transitive += 1
                assert kfold_transitive(span, 2, np.random.default_rng(trial))
                assert span.dim == n * n
        assert seen_transitive > 0


class TestKfoldTransitive:
    def test_full_algebra_all_k(self, m2):
        rng = np.random.default_rng(1)
        assert kfold_transitive(m2, 1, rng)
        assert kfold_transitive(m2, 2, rng)

    def test_diagonal_k1_false(self, diag3):
        assert not kfold_transitive(diag3, 1, np.random.default_rng(2))

    def test_k_out_of_range(self, m2):
        with pytest.raises(DomainError):
            kfold_transitive(m2, 0)
        with pytest.raises(DomainError):
            kfold_transitive(m2, 3)

    def test_rotated_invariant_line_caught(self):
        # conjugating {I, E12} hides the invariant line from coordinate-
        # aligned probes; the lattice route must still find it
        q = haar_unitary(2, derive_rng(9, "rot"))
        span = close_algebra([q @ E12 @ q.conj().T])
        assert not kfold_transitive(span, 1, np.random.default_rng(3))
        assert not kfold_transitive(span, 2, np.random.default_rng(4))

    def test_jordan_not_onefold(self, jordan3):
        assert not kfold_transitive(jordan3, 1, np.random.default_rng(5))

    def test_trivial_algebra_not_twofold(self, trivial3):
        assert not kfold_transitive(trivial3, 2, np.random.default_rng(6))

    def test_orbit_route_only_confirms_a_lattice_pass(self, monkeypatch, m2, diag3, upper2):
        class OrbitsCalled(Exception):
            pass

        def orbits_full(basis, tuples):
            raise OrbitsCalled

        monkeypatch.setattr(algstruct, "_orbits_full", orbits_full)
        # a reducible algebra fails on the lattice, so no orbit is sampled
        for span in (diag3, upper2):
            assert not kfold_transitive(span, 2, np.random.default_rng(7))
        with pytest.raises(OrbitsCalled):
            kfold_transitive(m2, 2, np.random.default_rng(7))


def prototype_generators(family, n):
    """A seeded Ginibre pair, its upper triangles, a rotated 3-block pair, or,
    for n = m^2, the tensor family I (x) shift, I (x) diag(1..m), b1 (x) I
    and b2 (x) I, where b1 and b2 share a 2-dimensional invariant subspace.
    The tensor family's algebra is C (x) M_m with C generated by b1 and b2,
    so it contains I (x) M_m, and its invariant subspaces are V (x) C^m."""
    rng = np.random.default_rng([0, n])
    if family == "tensor":
        m = int(round(n**0.5))
        eye = np.eye(m, dtype=complex)
        q = haar_unitary(m, rng)
        bs = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(2)]
        for b in bs:
            b[2:, :2] = 0.0
        return [np.kron(eye, np.roll(eye, 1, axis=0)), np.kron(eye, np.diag(np.arange(1.0, m + 1))),
                *(np.kron(q @ b @ q.conj().T, eye) for b in bs)]
    gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    if family == "triangular":
        return [np.triu(g) for g in gens]
    if family == "blocks":
        q = haar_unitary(n, rng)
        for g in gens:
            g[:3, 3:] = 0.0
            g[3:, :3] = 0.0
        return [q @ g @ q.conj().T for g in gens]
    return gens


def traced(call):
    """The call's result and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_generator_scale_leaves_the_answers():
    # a nonzero multiple of a generator generates the same algebra; scaled
    # by 1e200 its products once set the rank cut, and by 1e-200 they fell
    # below it
    def answers(gens):
        span = close_algebra(gens)
        report = find_invariant_subspace(span)
        kfold = kfold_transitive(span, 2, np.random.default_rng(0))
        return span.dim, report.kind, report.dimension, kfold

    for family in ("ginibre", "triangular", "blocks"):
        gens = prototype_generators(family, 6)
        want = answers(gens)
        for scale in (1e-200, 1e200):
            assert answers([gens[0] * scale, gens[1]]) == want
    assert answers([np.diag([1e200, 1.0])]) == (2, "commutant_eigenspace", 1, False)


class TestLargeAlgebras:
    @pytest.mark.parametrize(
        "family, dim, verdict",
        [("ginibre", 256, True), ("triangular", 136, False), ("blocks", 9 + 13**2, False),
         # dim C = 4 + 4 + 4 for 4 x 4 blocks upper triangular in one basis
         ("tensor", 12 * 4**2, False)],
    )
    def test_twofold_at_sixteen(self, family, dim, verdict):
        span = close_algebra(prototype_generators(family, 16))
        assert span.dim == dim
        report = find_invariant_subspace(span)
        assert (report.kind == "none") == verdict
        # the tensor family's only proper invariant subspace is V (x) C^4
        assert family != "tensor" or report.dimension == 2 * 4
        result, peak = traced(lambda: kfold_transitive(span, 2, np.random.default_rng(0)))
        assert result == verdict
        assert peak < 200.0

    @pytest.mark.parametrize("family", ["ginibre", "triangular", "blocks"])
    def test_twofold_peak_at_ten(self, family):
        span = close_algebra(prototype_generators(family, 10))
        _, peak = traced(lambda: kfold_transitive(span, 2, np.random.default_rng(0)))
        assert peak < 64.0

    def test_size_cap_refuses_before_allocating(self):
        n = 64
        assert 16 * 4 * n**4 > MAX_SYSTEM_BYTES
        gens = [np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)]

        def refuse():
            with pytest.raises(DomainError, match="cap"):
                close_algebra(gens)

        _, peak = traced(refuse)
        assert peak < 1.0

    def test_size_cap_counts_one_commutant_block_per_generator(self, monkeypatch):
        # two generator blocks and the SVD factor, 16 * 3 * 4^4 bytes, fit
        monkeypatch.setattr(config, "MAX_SYSTEM_BYTES", 16 * 3 * 4**4)
        rng = np.random.default_rng(5)
        gens = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
        span = close_algebra(gens)
        assert span.dim == 16
        assert len(span.commutant) == 1

    def test_radical_image_answers_without_the_commutant_at_seventeen(self):
        span = close_algebra(prototype_generators("triangular", 17))
        report, peak = traced(lambda: find_invariant_subspace(span))
        assert report.kind == "radical_image"
        assert "commutant" not in span.__dict__
        assert peak < 32.0

    def test_kfold_size_cap_refuses_large_k(self):
        # M_9 of the trivial algebra's 81-dimensional commutant, in M_81
        span = close_algebra([np.eye(9, dtype=complex)])
        assert 16 * 9**4 * 81 * 9**2 > MAX_SYSTEM_BYTES
        with pytest.raises(DomainError, match="cap"):
            kfold_transitive(span, 9)


class TestSpanValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(DomainError):
            AlgebraSpan(
                ambient_dim=2,
                basis=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
                generators=(),
            )

    def test_rejects_span_without_generators(self):
        with pytest.raises(DomainError, match="generator"):
            AlgebraSpan(ambient_dim=2, basis=(np.eye(2) / np.sqrt(2),), generators=())

    def test_rejects_span_without_identity(self):
        with pytest.raises(DomainError):
            AlgebraSpan(ambient_dim=2, basis=(E12,), generators=(E12,))
