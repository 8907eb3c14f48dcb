"""Matrix-model oracle: exact relations every seed, freeness in the limit."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from freeprob import matmodel
from freeprob.config import require_fits
from freeprob.errors import (
    DimensionMismatchError,
    DomainError,
    EigensolveError,
    WordSpecError,
)
from freeprob.matmodel import (
    MatrixModel,
    build_free_group,
    build_m2_free_m2,
    centered,
    derive_rng,
    exact_identity_residuals,
    haar_unitary,
    ks_distance,
    m2_generators,
    ntrace,
    realize,
    spectrum,
    trace_factorization_check,
    word_trace,
)
from freeprob.rdiagonal import OperatorTag, catalog_brown, pullback_radii

SEED = 20260822
FACTOR_NAMES = (
    [f"W{i}" for i in range(4)]
    + [f"V{i}" for i in range(4)]
    + [f"E{u}" for u in ("11", "12", "21", "22")]
    + [f"F{u}" for u in ("11", "12", "21", "22")]
)


@pytest.fixture(scope="module")
def model():
    return build_m2_free_m2(64, seed=SEED)


@pytest.fixture(scope="module")
def big_model():
    return build_m2_free_m2(256, seed=7)


@pytest.fixture(scope="module")
def freegroup():
    return build_free_group(512, seed=11)


class TestHaarUnitary:
    def test_dim_one_is_a_phase(self):
        u = haar_unitary(1, derive_rng(SEED, "phase"))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_unitarity(self):
        u = haar_unitary(64, derive_rng(SEED, "unitarity"))
        assert np.max(np.abs(u.conj().T @ u - np.eye(64))) < 1e-12

    def test_mean_trace_over_seeds(self):
        # Haar columns make the normalized trace mean-zero with std 1/dim
        traces = [np.trace(haar_unitary(256, derive_rng(s, "trace"))) for s in range(50)]
        mean = np.mean(traces) / 256
        assert abs(mean) < 3.0 / 256

    def test_bad_dim_rejected(self):
        with pytest.raises(DomainError):
            haar_unitary(0, derive_rng(SEED, "bad"))

    # 300 and 512 pass LAPACK's 128-column crossover into the blocked code
    @pytest.mark.parametrize("dim", [1, 2, 3, 64, 127, 300, 512])
    def test_matches_the_plain_expression_bitwise(self, dim):
        # the in-place build draws the same stream and rounds the same way
        rng = derive_rng(SEED, "plain")
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g / math.sqrt(2.0))
        d = np.diagonal(r)
        expected = q * (d / np.abs(d))
        assert haar_unitary(dim, derive_rng(SEED, "plain")).tobytes() == expected.tobytes()

    def test_build_holds_little_more_than_the_rotation(self):
        # a copy of the Ginibre matrix, a float draw buffer or a workspace
        # query without overwrite_a each pushes the peak to about 1.5-2x
        tracemalloc.start()
        try:
            haar_unitary(1024, derive_rng(SEED, "peak"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 1024**2

    def test_lapack_failure_raises(self, monkeypatch):
        def zgeqrf(a, lwork, overwrite_a):
            return a, np.ones(len(a), dtype=complex), np.ones(1, dtype=complex), -1

        monkeypatch.setattr(matmodel, "zgeqrf", zgeqrf)
        with pytest.raises(EigensolveError, match="zgeqrf failed with info = -1"):
            haar_unitary(8, derive_rng(SEED, "fail"))

    def test_size_cap_refuses_before_allocating(self):
        require_fits(16 * 4096**2, "dim 4096")  # exactly the cap still passes
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="256 MiB cap"):
                build_free_group(5000, 1)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 1.0

    def test_size_cap_message_one_byte_past_the_cap(self):
        # the need rounds up, so one byte past the cap never reads as the cap
        with pytest.raises(DomainError, match=r"^dim x needs 256\.1 MiB, above the 256 MiB cap$"):
            require_fits(256 * 2**20 + 1, "dim x")

    def test_derived_streams_are_independent(self):
        a = derive_rng(SEED, "alpha").standard_normal(4)
        b = derive_rng(SEED, "beta").standard_normal(4)
        a2 = derive_rng(SEED, "alpha").standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)


class TestModelConstruction:
    def test_exact_identities(self, model, big_model):
        # far below criterion 7's 1e-10 bound, at its dimensions 256 and 512 too
        for m in (model, build_m2_free_m2(128, seed=7), big_model):
            assert exact_identity_residuals(m)["rotation_unitarity"] < 1e-12

    def test_residual_fails_on_a_non_unitary_rotation(self, big_model):
        # the relations all follow from Q*Q = I, so a bent Q must trip the bound
        q = big_model.rotation
        rng = derive_rng(7, "perturbation")
        g = (rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)) / math.sqrt(
            2 * q.shape[0]
        )
        bent = MatrixModel(half_dim=256, seed=7, rotation=q + 1e-8 * g)
        assert exact_identity_residuals(bent)["rotation_unitarity"] > 1e-10

    def test_generator_relations(self):
        w0, w1, w2, w3 = m2_generators()
        assert np.array_equal(w1 @ w1, w0)
        assert np.array_equal(w3 @ w3, w0)
        assert np.max(np.abs(w2 @ w2 + w0)) == 0.0  # rotation squares to -1

    def test_unit_traces(self, model):
        assert ntrace(model.factor("W1")) == 0.0
        assert ntrace(model.factor("E12")) == 0.0
        assert abs(ntrace(model.factor("V1"))) < 1e-10
        assert abs(ntrace(model.factor("F12"))) < 1e-10

    def test_determinism_is_bitwise(self):
        a = build_m2_free_m2(32, seed=5)
        b = build_m2_free_m2(32, seed=5)
        for name in [n for n in FACTOR_NAMES if n[0] in ("V", "F")]:
            assert np.array_equal(a.factor(name), b.factor(name)), name

    def test_seeds_differ(self):
        a = build_m2_free_m2(32, seed=5)
        b = build_m2_free_m2(32, seed=6)
        assert not np.array_equal(a.factor("V1"), b.factor("V1"))

    def test_arrays_are_read_only(self, model):
        with pytest.raises(ValueError):
            model.factor("W1")[0, 0] = 5.0

    def test_freeness_of_alternating_words(self):
        # mixed centered words vanish as the dimension grows
        mean = np.mean(
            [word_trace(build_m2_free_m2(128, s), "c(W1) c(V1) c(W1) c(V1)") for s in range(10)]
        )
        assert abs(mean) < 0.1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_product_unitary_moments_vanish(self, k):
        # W1 V1 behaves like a Haar unitary: all low moments near zero
        word = " ".join(["W1 V1"] * k)
        mean = np.mean([word_trace(build_m2_free_m2(128, s), word) for s in range(10)])
        assert abs(mean) < 0.1


class TestFactors:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_factors_match_the_eager_construction(self, seed):
        # rebuild every factor from the rotation and the 2x2 generators
        model = build_m2_free_m2(3, seed)
        q = model.rotation
        eye = np.eye(3, dtype=complex)
        w = [np.kron(g, eye) for g in m2_generators()]
        v = [q @ x @ q.conj().T for x in w]

        def units(prefix, g0, g1, g2, g3):
            return {
                f"{prefix}11": (g0 + g1) / 2.0,
                f"{prefix}12": (g3 - g2) / 2.0,
                f"{prefix}21": (g3 + g2) / 2.0,
                f"{prefix}22": (g0 - g1) / 2.0,
            }

        expected = {f"W{i}": x for i, x in enumerate(w)}
        expected.update({f"V{i}": x for i, x in enumerate(v)})
        expected.update(units("E", *w))
        expected.update(units("F", *v))
        assert sorted(expected) == sorted(FACTOR_NAMES)
        for name in FACTOR_NAMES:
            if name[0] in ("W", "E"):
                assert np.array_equal(model.factor(name), expected[name]), name
            else:
                # F_ij = Q_i Q_j* sums its products in another order than
                # Q W Q*: allow a few roundings of a 6-term sum of O(1) terms
                gap = np.max(np.abs(model.factor(name) - expected[name]))
                assert gap <= 64 * np.finfo(float).eps, name

    def test_repeated_request_returns_the_same_array(self, model):
        assert model.factor("V1") is model.factor("V1")

    @pytest.mark.parametrize("name", ["W4", "V", "E13", "F1", "W01", "X0"])
    def test_unknown_factor_rejected(self, model, name):
        with pytest.raises(WordSpecError):
            model.factor(name)


class TestRealize:
    def test_rank_of_rotated_nilpotent(self):
        # the second factor of the product has rank exactly half the dimension
        tiny = build_m2_free_m2(1, seed=3)
        assert np.linalg.matrix_rank(realize(tiny, OperatorTag.W1F12)) <= 1
        small = build_m2_free_m2(2, seed=3)
        mat = realize(small, OperatorTag.W1F12)
        assert mat.shape == (4, 4)
        assert np.linalg.matrix_rank(mat) <= 2

    def test_nilpotent_sum_square_identity(self, model):
        s = realize(model, OperatorTag.E12_plus_F12)
        e12, f12 = model.factor("E12"), model.factor("F12")
        assert np.max(np.abs(s @ s - (e12 @ f12 + f12 @ e12))) < 1e-12

    def test_shifted_square_expansion(self, model):
        t = realize(model, OperatorTag.W1_plus_F12)
        w1, f12 = model.factor("W1"), model.factor("F12")
        eye = np.eye(model.dim)
        assert np.max(np.abs(t @ t - eye - w1 @ f12 - f12 @ w1)) < 1e-12

    def test_squared_tags_square_the_base(self, model):
        base = realize(model, OperatorTag.W1_plus_F12)
        assert np.array_equal(realize(model, OperatorTag.W1_plus_F12_squared), base @ base)

    def test_unknown_tag(self, model):
        with pytest.raises(ValueError):
            realize(model, "NotATag")


class TestCatalogSpectrum:
    """The block route against the dense eigensolve of the realized matrix."""

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("tag", list(OperatorTag))
    def test_matches_dense_oracle(self, tag, seed):
        model = build_m2_free_m2(128, seed)
        block = spectrum(model, tag)
        dense = np.linalg.eigvals(realize(model, tag))
        assert block.shape == (model.dim,)
        assert np.array_equal(spectrum(model, tag.value), block)
        cost = np.abs(block[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10
        if tag is OperatorTag.W1F12:
            assert np.count_nonzero(block == 0.0) == model.half_dim

    def test_tags_share_two_eigensolves(self, monkeypatch):
        model = build_m2_free_m2(16, seed=5)
        shapes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        for tag in OperatorTag:
            spectrum(model, tag)
        assert shapes == [(16, 16), (16, 16)]

    @pytest.mark.parametrize("name", ["reflected_eigenvalues", "nilpotent_eigenvalues"])
    def test_block_eigenvalues_read_only_and_solved_once(self, monkeypatch, name):
        model = build_m2_free_m2(8, seed=2)
        solves = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solves.append(a.shape) or eigvals(a))
        first = getattr(model, name)
        assert getattr(model, name) is first
        assert solves == [(8, 8)]
        assert first.shape == (8,)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        with pytest.raises(AttributeError):
            setattr(model, name, np.zeros(8, dtype=complex))
        assert getattr(model, name) is first

    def test_eigensolve_failure_keeps_diagnostics(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(EigensolveError, match=r"dim=16, normalized Frobenius norm="):
            spectrum(build_m2_free_m2(16, seed=5), OperatorTag.W1F12)


class TestEmpiricalCdf:
    """Sampled radii against the catalog laws through ks_distance's step CDF."""

    def test_ks_of_exact_quantile_sample(self):
        cat = catalog_brown(OperatorTag.E12_plus_F12)
        n = 4096
        # quantile sample of the closed form: F(r) = r^2/(1-r^2)
        t = (np.arange(n) + 0.5) / n
        radii = np.sqrt(t / (1.0 + t))
        assert ks_distance(radii, cat.cdf) <= 0.5 / n + 1e-12

    def test_ks_handles_atoms(self):
        cat = catalog_brown(OperatorTag.W1F12)
        n = 2048
        half = n // 2
        t = (np.arange(half) + 0.5) / half
        # half the sample at the atom, half on the continuous quantiles
        cont = np.sqrt(1.0 - 1.0 / (1.0 + t))
        radii = np.concatenate([np.zeros(half), cont])
        assert ks_distance(radii, cat.cdf) <= 1.0 / n + 1e-12

    @pytest.mark.parametrize(
        "tag",
        [
            OperatorTag.W1F12,
            OperatorTag.E12_plus_F12,
            OperatorTag.E12_plus_F12_squared,
            OperatorTag.W1_plus_F12_squared,
        ],
    )
    def test_spectra_match_catalog(self, big_model, tag):
        radii = pullback_radii(tag, np.linalg.eigvals(realize(big_model, tag)))
        # the dense eigensolve leaves the W1F12 kernel below 1e-14 rather
        # than at 0, the law's atom; every other radius is above 1e-3
        radii = np.where(radii < 1e-12, 0.0, radii)
        assert ks_distance(radii, catalog_brown(tag).cdf) <= 0.05

    def test_spectrum_matches_catalog_in_pullback_coordinate(self, big_model):
        vals = np.linalg.eigvals(realize(big_model, OperatorTag.W1_plus_F12))
        rho = pullback_radii(OperatorTag.W1_plus_F12, vals)
        assert ks_distance(rho, catalog_brown(OperatorTag.W1_plus_F12).cdf) <= 0.05

    def test_support_radius_bound(self, big_model):
        vals = np.linalg.eigvals(realize(big_model, OperatorTag.E12_plus_F12))
        assert np.abs(vals).max() <= 1.0 / math.sqrt(2.0) + 0.05

    def test_two_atom_annulus_against_recipe(self, big_model):
        # Haar unitary times a deterministic positive diagonal: the recipe's
        # output is the oracle for the annulus law
        from freeprob.measures import ScalarMeasure
        from freeprob.rdiagonal import brown_rdiagonal

        dim = big_model.dim
        rng = derive_rng(97, "annulus-check")
        u = haar_unitary(dim, rng)
        h = np.diag(np.concatenate([np.full(dim // 2, 0.5), np.full(dim // 2, 1.5)]))
        radii = np.abs(np.linalg.eigvals(u @ h))
        law = brown_rdiagonal(ScalarMeasure(atoms=((0.5, 0.5), (1.5, 0.5))))
        assert ks_distance(radii, law.cdf) <= 0.05


class TestWords:
    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "c(W1", "W1**2", "2W1", "W1 ^2", "W1^0", "E12^-1", "V1^2", "c(V1^-1)", "W1^1"],
    )
    def test_parse_rejects(self, model, bad):
        with pytest.raises(WordSpecError):
            word_trace(model, bad)

    def test_centered_single_generator_is_zero(self, model):
        assert word_trace(model, "c(W1)") == 0.0

    def test_unknown_name(self, model):
        with pytest.raises(WordSpecError):
            word_trace(model, "W9")

    def test_five_letter_alternating_word(self):
        word = "c(W1) c(V1) c(W1) c(V1) c(W1)"
        mean = np.mean([word_trace(build_m2_free_m2(256, s), word) for s in range(5)])
        assert abs(mean) < 0.1

    def test_centered_subtracts_the_trace_on_a_copy(self):
        m = np.arange(9.0).reshape(3, 3)
        out = centered(m)
        assert out.dtype == complex
        assert np.array_equal(out, m - 4.0 * np.eye(3))
        assert np.array_equal(m, np.arange(9.0).reshape(3, 3))

    def test_matches_the_explicit_product(self, model):
        v1 = model.factor("V1")
        c_w1 = model.factor("W1") - ntrace(model.factor("W1")) * np.eye(model.dim)
        c_v1 = v1 - ntrace(v1) * np.eye(model.dim)
        explicit = ntrace(c_w1 @ v1 @ v1 @ model.factor("F12") @ c_v1)
        got = word_trace(model, "c(W1) V1 V1 F12 c(V1)")
        assert got == pytest.approx(explicit, abs=1e-13)

    def test_alternating_word_is_the_left_to_right_product_bitwise(self, model):
        # the word criterion 7 reads: centered copies, multiplied left to right
        c_w1, c_v1 = centered(model.factor("W1")), centered(model.factor("V1"))
        explicit = ntrace(c_w1 @ c_v1 @ c_w1 @ c_v1)
        assert word_trace(model, "c(W1) c(V1) c(W1) c(V1)") == explicit

    def test_haar_symmetrization_commutes(self, model):
        u = model.factor("W1") @ model.factor("V1")
        sym = u + u.conj().T
        w1 = model.factor("W1")
        comm = sym @ w1 - w1 @ sym
        assert np.max(np.abs(comm)) < 1e-12


class TestTraceFactorization:
    def test_trivial_identity(self, freegroup):
        eye = np.eye(freegroup.dim, dtype=complex)
        out = trace_factorization_check(eye, eye, eye, eye, freegroup.u_a)
        assert out.lhs == pytest.approx(1.0, abs=1e-12)
        assert out.rhs == pytest.approx(1.0, abs=1e-12)

    def test_same_word_reduces_exactly(self, freegroup):
        ub = freegroup.u_b
        ub3 = np.linalg.matrix_power(ub, 3)
        z = centered(freegroup.u_a)
        out = trace_factorization_check(ub, ub3, ub, ub3, z)
        assert out.gap < 0.05
        assert out.lhs == pytest.approx(1.0, abs=0.05)

    def test_orthogonal_outer_words(self, freegroup):
        # tau(Ub* Ub^2) = tau(Ub) is a vanishing Haar moment, so both sides
        # are near zero; at finite dimension the right side is only O(1/dim)
        eye = np.eye(freegroup.dim, dtype=complex)
        ub2 = np.linalg.matrix_power(freegroup.u_b, 2)
        z = centered(freegroup.u_a)
        out = trace_factorization_check(freegroup.u_b, eye, ub2, eye, z)
        assert abs(out.lhs) < 0.05
        assert abs(out.rhs) < 0.05

    def test_gap_decreases_with_dimension(self):
        def gap(dim):
            def one(s):
                f = build_free_group(dim, s)
                eye = np.eye(dim, dtype=complex)
                ub2 = np.linalg.matrix_power(f.u_b, 2)
                out = trace_factorization_check(f.u_b, eye, ub2, eye, centered(f.u_a))
                return out.gap

            return np.mean([one(s) for s in range(5)])

        assert gap(512) < gap(128)

    def test_sides_match_the_explicit_products(self):
        # general non-unitary inputs, where no side reduces to a constant
        rng = np.random.default_rng(16)
        a, b, c, d, g = (
            (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / math.sqrt(32)
            for _ in range(5)
        )
        z = centered(g)
        out = trace_factorization_check(a, b, c, d, z)
        lhs = ntrace((a @ z @ b).conj().T @ (c @ z @ d))
        rhs = ntrace(a.conj().T @ c) * ntrace(b.conj().T @ d) * ntrace(z.conj().T @ z)
        assert abs(out.lhs - lhs) <= 1e-12
        assert abs(out.rhs - rhs) <= 1e-12
        assert abs(lhs) > 1e-3 and abs(rhs) > 1e-5

    def test_uncentered_rejected(self, freegroup):
        eye = np.eye(freegroup.dim, dtype=complex)
        with pytest.raises(DomainError):
            trace_factorization_check(eye, eye, eye, eye, eye)

    def test_shape_mismatch(self, freegroup):
        eye = np.eye(freegroup.dim, dtype=complex)
        with pytest.raises(DimensionMismatchError):
            trace_factorization_check(eye, eye, eye, np.eye(3, dtype=complex), eye)

