"""Algebra closure, commutant, radical, and transitivity decisions.

The recurring oracle is Burnside: a unital subalgebra of M_N with no proper
invariant subspace must be all of M_N, so subspace discovery can always be
cross-checked against a dimension count.
"""

import tracemalloc

import numpy as np
import pytest

from freeprob.acceptance import _random_algebra_generators
from freeprob.algstruct import (
    _MAX_SYSTEM_BYTES,
    AlgebraSpan,
    close_algebra,
    commutant,
    find_invariant_subspace,
    is_transitive,
    kfold_transitive,
    radical,
)
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
    return close_algebra([], ambient_dim=3)


def random_generators(rng, n, kind):
    if kind == 0:
        return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    if kind == 1:
        return [np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))]
    a = np.zeros((n, n), dtype=complex)
    a[np.triu_indices(n, 1)] = rng.standard_normal(n * (n - 1) // 2)
    return [a, np.diag(rng.standard_normal(n)).astype(complex)]


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
        assert jordan3.contains(np.eye(3, dtype=complex))

    def test_basis_trace_orthonormal(self, m2):
        rows = np.array([b.ravel() for b in m2.basis])
        gram = rows.conj() @ rows.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-10

    def test_empty_generators(self):
        with pytest.raises(DomainError):
            close_algebra([])
        span = close_algebra([], ambient_dim=3)
        assert span.dim == 1 and span.ambient_dim == 3

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([E12, np.eye(3, dtype=complex)])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([np.zeros((2, 3))])

    def test_ambient_dim_conflict_rejected(self):
        with pytest.raises(DimensionMismatchError):
            close_algebra([E12], ambient_dim=5)

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
            assert is_transitive(span)


class TestCommutant:
    def test_full_algebra_scalars_only(self, m2):
        comm = commutant(m2)
        assert len(comm) == 1
        x = comm[0]
        assert np.abs(x - (np.trace(x) / 2) * np.eye(2)).max() <= 1e-10

    def test_trivial_algebra_everything(self):
        comm = commutant(close_algebra([], ambient_dim=3))
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
            assert jordan3.contains(x)


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

    def test_report_json_round_trip(self, upper2):
        payload = find_invariant_subspace(upper2).to_json()
        assert payload["kind"] == "radical_image"
        assert payload["dimension"] == 1
        assert payload["verified"] is True
        assert len(payload["basis"]) == 1
        assert len(payload["basis"][0]) == 2


class TestTransitivity:
    def test_full_true(self, m2):
        assert is_transitive(m2)

    def test_diagonal_false(self, diag3):
        assert not is_transitive(diag3)

    def test_burnside_equivalence_sweep(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(2, 7))
            span = close_algebra(random_generators(rng, n, trial % 3))
            rep = find_invariant_subspace(span)
            full = span.dim == n * n
            assert is_transitive(span) == full
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
            if is_transitive(span):
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


def prototype_generators(family, n):
    """A seeded Ginibre pair, its upper triangles, or a rotated 3-block pair."""
    rng = np.random.default_rng([0, n])
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


class TestLargeAlgebras:
    @pytest.mark.parametrize(
        "family, dim, verdict",
        [("ginibre", 256, True), ("triangular", 136, False), ("blocks", 9 + 13**2, False)],
    )
    def test_twofold_at_sixteen(self, family, dim, verdict):
        span = close_algebra(prototype_generators(family, 16))
        assert span.dim == dim
        assert is_transitive(span) == verdict
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
        assert 16 * 4 * n**4 > _MAX_SYSTEM_BYTES
        gens = [np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)]

        def refuse():
            with pytest.raises(DomainError, match="cap"):
                close_algebra(gens)

        _, peak = traced(refuse)
        assert peak < 1.0

    def test_kfold_size_cap_refuses_large_k(self):
        # M_9 of the trivial algebra's 81-dimensional commutant, in M_81
        span = close_algebra([], ambient_dim=9)
        assert 16 * 9**4 * 81 * 9**2 > _MAX_SYSTEM_BYTES
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

    def test_rejects_span_without_identity(self):
        with pytest.raises(DomainError):
            AlgebraSpan(ambient_dim=2, basis=(E12,), generators=(E12,))
