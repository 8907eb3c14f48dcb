"""Log-determinant fields and their Laplacian masses.

Ground truth throughout: for a finite matrix the field's Laplacian recovers
the eigenvalue counting measure, so masses can be checked against the
matrix's own eigensolve. Catalog operators add limit-law oracles on top.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import zpotrf

from freeprob import brownfield, config
from freeprob.brownfield import (
    BrownField,
    GridSpec,
    brown_laplacian,
    default_epsilon,
    field_csv_text,
    field_metadata,
    logdet_field,
    mass_csv_text,
    mass_in_region,
)
from freeprob.errors import DimensionMismatchError, DomainError
from freeprob.matmodel import build_m2_free_m2, realize

SEED = 20260822


def random_matrix(n, seed, scale=None):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z / (scale if scale is not None else math.sqrt(2 * n))


def svd_oracle(t, grid):
    """(1/2N) sum ln(sigma_i^2 + eps) at every node, one SVD per node."""
    n = t.shape[0]
    eye = np.eye(n)
    out = np.empty((grid.nx, grid.ny))
    for (ix, iy), lam in np.ndenumerate(grid.nodes()):
        sigma = np.linalg.svd(t - lam * eye, compute_uv=False)
        out[ix, iy] = np.log(sigma**2 + grid.epsilon).sum() / (2 * n)
    return out


class TestGridSpec:
    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            GridSpec(x_min=1.0, x_max=0.0, y_min=0.0, y_max=1.0)
        with pytest.raises(DomainError):
            GridSpec(x_min=0.0, x_max=1.0, y_min=2.0, y_max=2.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=8)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(DomainError):
            GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, epsilon=-1e-9)

    def test_rejects_non_finite_values(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, epsilon=bad)
        with pytest.raises(DomainError, match="finite"):
            GridSpec(x_min=0.0, x_max=math.inf, y_min=0.0, y_max=1.0)

    def test_rejects_value_array_above_size_cap(self):
        # 8 bytes per node: 6000^2 nodes need 274.7 MiB
        with pytest.raises(DomainError, match="a 6000 x 6000 field needs 274.7 MiB"):
            GridSpec.square(1.0, 6000)

    def test_square_and_covering(self):
        g = GridSpec.square(2.0, 11, center=1 + 1j)
        assert g.x_min == -1.0 and g.x_max == 3.0
        assert g.y_min == -1.0 and g.y_max == 3.0
        pts = np.array([0.0 + 0j, 1.0 + 2j])
        g2 = GridSpec.covering(pts, n=21)
        # padded by a quarter of the larger side, 2, on every side
        assert (g2.x_min, g2.x_max) == (-0.5, 1.5)
        assert (g2.y_min, g2.y_max) == (-0.5, 2.5)

    @pytest.mark.parametrize(
        "bounds",
        [{"x_min": 0.0}, {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0}, {"y_max": 1.0}],
    )
    def test_rejects_partly_set_bounds(self, bounds):
        with pytest.raises(DomainError, match="all set or all unset"):
            GridSpec(**bounds)

    def test_node_layout(self):
        g = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=2.0, nx=3, ny=5)
        nodes = g.nodes()
        assert nodes.shape == (3, 5)
        assert nodes[1, 2] == 0.5 + 1.0j
        assert g.dx == 0.5 and g.dy == 0.5

    def test_unset_bounds_refused_by_the_geometry(self):
        # only logdet_field resolves unset bounds; every other reader refuses them
        g = GridSpec(nx=5, ny=5)
        fld = BrownField(grid=g, values=np.zeros((5, 5)), laplacian_mass=np.zeros((3, 3)),
                         noise_floor=0.0)
        readers = (lambda: g.dx, lambda: g.dy, g.xs, g.ys, g.nodes,
                   lambda: brown_laplacian(g, np.zeros((5, 5))),
                   lambda: mass_in_region(fld, lambda x, y: x < 0.0),
                   lambda: field_csv_text(fld), lambda: mass_csv_text(fld))
        for read in readers:
            with pytest.raises(DomainError, match="logdet_field resolves them"):
                read()


def log_fk_at_zero(t, epsilon=0.0):
    """The field at its centre node lambda = 0: ln of the regularized FK
    determinant exp((1/2N) sum ln(sigma_i^2 + eps)) of t."""
    g = GridSpec.square(0.5, 3, epsilon=epsilon)
    return logdet_field(t, g).values[1, 1]


class TestFkDeterminant:
    """The field at lambda = 0 is ln of the Fuglede-Kadison determinant."""

    def test_identity(self):
        assert log_fk_at_zero(np.eye(2)) == 0.0
        assert log_fk_at_zero(np.eye(2), 1e-8) == pytest.approx(0.5 * math.log1p(1e-8), abs=1e-15)

    def test_diag_geometric_mean(self):
        for eps in (0.0, 1e-12):
            assert log_fk_at_zero(np.diag([1.0, 4.0]), eps) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_regularized_nilpotent_positive(self):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        # singular values 1, 0 -> (ln(1+eps) + ln(eps))/4
        eps = 1e-4
        expected = (math.log(1 + eps) + math.log(eps)) / 4
        assert log_fk_at_zero(e12, eps) == pytest.approx(expected, rel=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(SEED)
        t = random_matrix(16, 3)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        for eps in (0.0, default_epsilon(t)):
            a, b = log_fk_at_zero(t, eps), log_fk_at_zero(q @ t, eps)
            assert abs(a - b) <= 1e-10

    def test_multiplicative_on_invertibles(self):
        for seed in (1, 2, 3):
            a = np.eye(12) + 0.3 * random_matrix(12, seed)
            b = np.eye(12) + 0.3 * random_matrix(12, seed + 100)
            lhs = log_fk_at_zero(a @ b)
            rhs = log_fk_at_zero(a) + log_fk_at_zero(b)
            assert abs(lhs - rhs) <= 1e-10


class TestLogdetField:
    def test_scalar_zero_at_two(self):
        g = GridSpec(x_min=1.9, x_max=2.1, y_min=-0.1, y_max=0.1, nx=3, ny=3)
        f = logdet_field(np.zeros((1, 1)), g)
        assert f.values[1, 1] == pytest.approx(math.log(2.0), abs=1e-14)
        assert f.path == "eigenvalues"

    def test_diag_at_minus_one(self):
        g = GridSpec(x_min=-1.2, x_max=-0.8, y_min=-0.2, y_max=0.2, nx=3, ny=3)
        f = logdet_field(np.diag([0.0, 1.0]), g)
        assert f.values[1, 1] == pytest.approx(0.5 * math.log(2.0), abs=1e-14)

    def test_path_selection_and_validation(self):
        g0 = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=3, ny=3)
        geps = GridSpec(
            x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=3, ny=3, epsilon=1e-8
        )
        t = np.diag([0.3, 0.7])
        assert logdet_field(t, g0).path == "eigenvalues"
        assert logdet_field(t, geps).path == "svd"
        with pytest.raises(DimensionMismatchError):
            logdet_field(np.zeros((2, 3)), g0)

    def test_paths_agree_away_from_spectrum(self):
        # on nodes at distance >= d from every eigenvalue the two values
        # differ by at most (1/2N) sum ln(1 + eps/sigma_i^2) <= eps/(2 d^2)
        t = random_matrix(24, 5)
        eps = 1e-8
        g0 = GridSpec(x_min=2.0, x_max=3.0, y_min=2.0, y_max=3.0, nx=5, ny=5)
        geps = GridSpec(
            x_min=2.0, x_max=3.0, y_min=2.0, y_max=3.0, nx=5, ny=5, epsilon=eps
        )
        a = logdet_field(t, g0).values
        b = logdet_field(t, geps).values
        sig_min = min(
            np.linalg.svd(t - lam * np.eye(24), compute_uv=False).min()
            for lam in g0.nodes().ravel()
        )
        assert np.abs(a - b).max() <= 10.0 * eps / (2.0 * sig_min**2) + 1e-12

    def test_eigenvalue_node_jittered_and_flagged(self):
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)
        f = logdet_field(np.diag([0.0, 1.0]), g)
        # nodes (2,2)=0 and (4,2)=1 collide, are flagged, stay finite
        assert set(f.flagged) == {(2, 2), (4, 2)}
        assert np.isfinite(f.values).all()

    def test_double_collision_answers(self):
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)
        # second eigenvalue half a cell diagonal from the first, at a node
        t = np.diag([0.0, 0.5 * g.dx + 0.5j * g.dy])
        f = logdet_field(t, g)
        assert f.flagged == ((2, 2),)
        assert np.isfinite(f.values).all()

    def test_corner_collision_answers(self):
        # a corner node no stencil reads: flagged like any other node, and
        # the total mass is the one read with the corner left out
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)
        corner = -1.0 - 1.0j
        t = np.diag([corner, corner + 0.5 * g.dx + 0.5j * g.dy])
        f = logdet_field(t, g)
        assert f.flagged == ((0, 0),)
        assert np.isfinite(f.values).all()
        assert f.total_mass() == pytest.approx(0.147084, abs=1e-6)

    def test_flagged_node_value_against_oracle(self):
        # at a node on m eigenvalues each of their distances reads as half
        # the cell diagonal h, and every other distance is the node's own
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)
        eigs = [0.5, 0.5, -0.25 + 0.5j, 1.0]
        f = logdet_field(np.diag(eigs), g)
        assert f.flagged == ((3, 2), (4, 2))
        h = 0.5 * math.hypot(g.dx, g.dy)
        for ix, iy in f.flagged:
            lam = g.nodes()[ix, iy]
            m = sum(e == lam for e in eigs)
            rest = sum(math.log(abs(e - lam)) for e in eigs if e != lam)
            assert f.values[ix, iy] == (rest + m * math.log(h)) / len(eigs)

    @pytest.mark.parametrize(
        ("nx", "ny", "epsilon"),
        [(17, 17, None), (17, 17, 0.0), (9, 13, None), (9, 13, 0.0)],
    )
    def test_unset_bounds_and_epsilon_resolve(self, nx, ny, epsilon):
        # unset bounds cover the eigenvalues at the request's own node
        # counts, and an unset epsilon is the default one
        t = random_matrix(12, 8)
        eps = default_epsilon(t) if epsilon is None else epsilon
        want = replace(GridSpec.covering(np.linalg.eigvals(t), nx, epsilon=eps), ny=ny)
        got = logdet_field(t, GridSpec(nx=nx, ny=ny, epsilon=epsilon))
        ref = logdet_field(t, want)
        assert got.grid == ref.grid == want
        assert np.array_equal(got.values, ref.values)
        assert np.array_equal(got.laplacian_mass, ref.laplacian_mass)
        assert got.flagged == ref.flagged
        assert got.path == ("eigenvalues" if epsilon == 0.0 else "svd")

    def test_refuses_fewer_than_one_thread(self):
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)
        for threads in (0, -2):
            with pytest.raises(DomainError, match=f"threads must be >= 1, got {threads}"):
                logdet_field(np.diag([0.0, 1.0]), g, threads=threads)

    def test_refuses_more_than_max_threads_before_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        # a missing check fails here without starting a single thread
        monkeypatch.setattr(brownfield, "ThreadPoolExecutor", no_pool)
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5, epsilon=1e-3)
        for threads in (257, 10**5):
            with pytest.raises(DomainError, match=f"threads must be <= 256, got {threads}"):
                logdet_field(np.diag([0.0, 1.0]), g, threads=threads)
        monkeypatch.undo()
        # the ceiling itself is accepted; a 5-row grid starts only 5 workers
        assert np.array_equal(
            logdet_field(np.diag([0.0, 1.0]), g, threads=256).values,
            logdet_field(np.diag([0.0, 1.0]), g).values,
        )

    def test_laplacian_refuses_non_finite_values(self):
        g = GridSpec(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5)
        values = np.zeros((5, 5))
        values[2, 3] = math.nan
        values[4, 4] = -math.inf
        with pytest.raises(DomainError, match=r"non-finite values at nodes \[\(2, 3\), \(4, 4\)\]"):
            brown_laplacian(g, values)

    @pytest.mark.parametrize("shape", [(7, 7), (5, 4), (4, 5)])
    def test_laplacian_refuses_values_off_the_grid(self, shape):
        with pytest.raises(DimensionMismatchError, match=rf"shape \({shape[0]}, {shape[1]}\) on a 5 x 5"):
            brown_laplacian(GridSpec.square(1.0, 5), np.zeros(shape))

    def test_thread_count_bitwise_identical(self):
        t = random_matrix(20, 9)
        g = GridSpec(
            x_min=-1.5, x_max=1.5, y_min=-1.5, y_max=1.5, nx=17, ny=17, epsilon=1e-7
        )
        a = logdet_field(t, g, threads=1).values
        for threads in (3, 4):
            assert np.array_equal(a, logdet_field(t, g, threads=threads).values)
        g0 = GridSpec(x_min=-1.5, x_max=1.5, y_min=-1.5, y_max=1.5, nx=17, ny=17)
        c = logdet_field(t, g0, threads=1).values
        d = logdet_field(t, g0, threads=3).values
        assert np.array_equal(c, d)

    @pytest.mark.parametrize("n", [1, 7, 50, 128])
    def test_cholesky_batch_matches_scipy_zpotrf(self, n):
        # the kernel's LAPACK handle against scipy's wrapper of the same
        # routine on a batch of shifted Gram matrices, one of them negative
        # definite: a wrong uplo, layout, lda or info slot shows here
        t = random_matrix(n, n)
        eye = np.eye(n)
        grams = [
            t.conj().T @ t - x * (t + t.conj().T) + (x * x + 1e-3) * eye
            for x in (-0.5, 0.0, 0.25)
        ]
        batch = np.stack([grams[0], grams[1], -eye, grams[2]])
        want = [zpotrf(node.T, lower=1, clean=0) for node in batch]
        info = brownfield._cholesky_batch(batch)
        assert info.tolist() == [w[1] for w in want] == [0, 0, 1, 0]
        for k in (0, 1, 3):
            assert np.array_equal(np.diagonal(batch[k]), np.diagonal(want[k][0]))

    def test_cholesky_batch_refuses_other_layouts(self):
        # the handle writes through raw addresses, so any other layout is refused
        good = np.stack([np.eye(3, dtype=complex)] * 2)
        for bad in (good.real.copy(), good.transpose(0, 2, 1)[:, ::2], good[:, :2],
                    np.broadcast_to(good[0], (2, 3, 3))):
            with pytest.raises(ValueError, match="C-ordered complex128"):
                brownfield._cholesky_batch(bad)

    def test_matches_svd_oracle_ginibre(self):
        t = random_matrix(50, 13)
        eigs = np.linalg.eigvals(t)
        eps = default_epsilon(t)
        grids = [GridSpec.covering(eigs, n=24, epsilon=eps)]
        # the centre node of each small grid lies within 1e-6 of an eigenvalue,
        # where the Gram matrix's smallest eigenvalue is close to eps
        grids += [
            GridSpec.square(0.01, 3, center=lam + (3e-7 + 4e-7j), epsilon=eps)
            for lam in eigs[:6]
        ]
        for g in grids:
            got = logdet_field(t, g).values
            assert np.abs(got - svd_oracle(t, g)).max() <= 1e-11

    def test_ragged_final_batch_matches_oracle(self):
        # at N = 205 a batch holds 2**18 // 205**2 = 6 nodes, so a 101-node
        # row is factored as 16 batches of 6 and one of 5 in the same buffer
        t = random_matrix(205, 17)
        g = GridSpec(
            x_min=-1.1, x_max=1.1, y_min=-0.3, y_max=0.3, nx=101, ny=3,
            epsilon=default_epsilon(t),
        )
        got = logdet_field(t, g).values
        assert np.abs(got - svd_oracle(t, g)).max() <= 1e-11

    def test_matches_svd_oracle_diagonal(self):
        t = np.diag([0.0, 0.5, -0.25 + 0.5j, 0.75j, 1.0 - 1.0j, 0.5])
        # nodes land exactly on the eigenvalues 0 and 0.5 (twice)
        g = GridSpec(
            x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=9, ny=9,
            epsilon=default_epsilon(t),
        )
        got = logdet_field(t, g).values
        assert np.abs(got - svd_oracle(t, g)).max() <= 1e-11

    def test_epsilon_below_gram_rounding_raises(self):
        rng = np.random.default_rng(SEED)
        u, v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        # rank one: at the node 0 the Gram matrix is singular, and 1e-300 on
        # its diagonal is lost to rounding
        g = GridSpec(
            x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=5, ny=5, epsilon=1e-300
        )
        t = np.outer(u, v.conj())
        for threads in (1, 3):
            with pytest.raises(DomainError, match=r"epsilon 1\.000e-300 .* grid row 2 "):
                logdet_field(t, g, threads=threads)
        # the failed call leaves nothing behind for the next one
        g_ok = replace(g, epsilon=default_epsilon(t))
        for threads in (1, 3):
            got = logdet_field(t, g_ok, threads=threads).values
            assert np.abs(got - svd_oracle(t, g_ok)).max() <= 1e-11

    def test_gram_pair_above_size_cap_refused(self):
        # a read-only broadcast view: the matrix itself takes no memory
        big = np.broadcast_to(np.complex128(1.0), (2897, 2897))
        # one worker's Gram pair and one-node batch, 48 * 2897^2 bytes, pass
        # 256 MiB
        with pytest.raises(DomainError, match="Gram pair of a 2897 x 2897 matrix"):
            logdet_field(big, GridSpec.square(1.0, 3, epsilon=1e-6))

    def test_peak_memory_bounded_by_batch(self):
        # at N = 128 a batch holds 2**18 // 128**2 = 16 nodes, i.e. 2**18
        # complex Gram entries of 16 bytes = 4 MiB; the factor overwrites
        # the batch, so the peak is one batch per worker thread plus the
        # rows' O(N^2) matrices and the O(nodes) output (4 MiB allowed).  A
        # 256-node grid row takes 16 batches; a whole row would be 64 MiB.
        batch = (1 << 18) * 16
        t = random_matrix(128, 3)
        g = GridSpec(
            x_min=-1.2, x_max=1.2, y_min=-1.2, y_max=1.2, nx=256, ny=3,
            epsilon=default_epsilon(t),
        )
        for threads in (1, 2):
            tracemalloc.start()
            try:
                logdet_field(t, g, threads=threads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert batch <= peak <= threads * batch + (4 << 20)

    def test_gram_sizing_limits(self):
        # four workers at the CLI's default N = 128 and 256-node rows hold
        # 16-node batches, (16 * 16 + 32) * 128^2 bytes each: 18 MiB in all
        assert brownfield.require_gram_fits(128, 256, 4) == 16
        # past N = 2364 on one worker, and N = 1672 on two, a one-node batch
        # and the Gram pair, 48 N^2 bytes per worker, pass 256 MiB
        for n, workers in ((2364, 1), (1672, 2)):
            assert brownfield.require_gram_fits(n, 256, workers) == 1
            with pytest.raises(DomainError, match=f"Gram pair of a {n + 2} x {n + 2} matrix"):
                brownfield.require_gram_fits(n + 2, 256, workers)

    @pytest.mark.parametrize("entries", [1, 24 * 24 * 40], ids=["one-node", "whole-row"])
    def test_batch_length_leaves_the_field_unchanged(self, monkeypatch, entries):
        t = random_matrix(24, 21)
        g = GridSpec(nx=40, ny=40, epsilon=None)
        want = logdet_field(t, g, threads=2)
        monkeypatch.setattr(brownfield, "BATCH_ENTRIES", entries)
        assert brownfield.require_gram_fits(24, 40, 2) == (1 if entries == 1 else 40)
        got = logdet_field(t, g, threads=2)
        assert got.grid == want.grid and got.grid.epsilon > 0.0
        assert np.array_equal(got.values, want.values)
        assert field_csv_text(got) == field_csv_text(want)
        assert mass_csv_text(got) == mass_csv_text(want)

    def test_underflowing_default_epsilon_still_sized(self, monkeypatch):
        # the default epsilon of this nonzero matrix, 1e-6 * (8e-170)^2,
        # underflows to 0; its Gram pair (2048 bytes) is still checked, and
        # when it fits the epsilon = 0 kernel runs
        t = np.full((8, 8), 1e-170 + 0j)
        assert t.any() and default_epsilon(t) == 0.0
        monkeypatch.setattr(config, "MAX_SYSTEM_BYTES", 1536)
        with pytest.raises(DomainError, match="Gram pair of a 8 x 8 matrix"):
            logdet_field(t, GridSpec(nx=8, ny=8, epsilon=None))
        monkeypatch.undo()
        assert logdet_field(t, GridSpec(nx=8, ny=8, epsilon=None)).path == "eigenvalues"

    @pytest.mark.parametrize("matrix", [np.array([[2.0]]), 2.0 * np.eye(4)], ids=["2", "2I4"])
    def test_covering_grid_holds_the_regularized_mass(self, matrix):
        # a degenerate normal spectrum has an empty bounding box; the grid
        # is padded by 10 sqrt(epsilon), past which little mass spreads
        fld = logdet_field(matrix, GridSpec(epsilon=None))
        eps = fld.grid.epsilon
        assert eps == default_epsilon(matrix) > 0.0
        assert fld.grid.x_max - 2.0 == pytest.approx(10.0 * math.sqrt(eps))
        assert fld.total_mass() >= 0.98


class TestBrownLaplacian:
    def test_normal_matrix_mass_and_split(self):
        t = np.diag([0.0, 1.0])
        g = GridSpec(
            x_min=-0.7, x_max=1.7, y_min=-1.2, y_max=1.2, nx=193, ny=193, epsilon=1e-9
        )
        fld = logdet_field(t, g)
        assert fld.total_mass() == pytest.approx(1.0, abs=0.02)
        left = mass_in_region(fld, lambda x, y: x < 0.5)
        right = mass_in_region(fld, lambda x, y: x >= 0.5)
        assert left == pytest.approx(0.5, abs=0.02)
        assert right == pytest.approx(0.5, abs=0.02)

    def test_quadrant_masses_match_counts(self):
        t = random_matrix(50, 11)
        eigs = np.linalg.eigvals(t)
        g = GridSpec.square(
            1.3 * max(np.abs(eigs.real).max(), np.abs(eigs.imag).max()),
            129,
            epsilon=default_epsilon(t),
        )
        fld = logdet_field(t, g)
        for qx, qy in [(1, 1), (-1, 1), (-1, -1), (1, -1)]:
            mass = mass_in_region(fld, lambda x, y: (qx * x > 0) & (qy * y > 0))
            count = np.mean((qx * eigs.real > 0) & (qy * eigs.imag > 0))
            assert abs(mass - count) <= 0.02

    def test_refinement_reduces_total_mass_error(self):
        t = random_matrix(20, 4)
        eigs = np.linalg.eigvals(t)
        eps = default_epsilon(t)
        errors = []
        for n in (65, 129):
            g = GridSpec.covering(eigs, n=n, epsilon=eps)
            fld = logdet_field(t, g)
            errors.append(abs(fld.total_mass() - 1.0))
        assert errors[1] <= 0.5 * errors[0]

    def test_subharmonic_within_noise_floor(self):
        t = random_matrix(20, 4)
        g = GridSpec.covering(
            np.linalg.eigvals(t), n=65, epsilon=default_epsilon(t)
        )
        fld = logdet_field(t, g)
        assert math.isfinite(fld.noise_floor)
        assert fld.laplacian_mass.min() >= -fld.noise_floor

    def test_catalog_disc_mass(self):
        # limit law for the nilpotent-sum operator puts mass 1/3 in |z| <= 1/2
        t = realize(build_m2_free_m2(256, 7), "E12_plus_F12")
        fld = logdet_field(t, GridSpec.square(0.85, 129))
        disc = mass_in_region(fld, lambda x, y: x**2 + y**2 <= 0.25)
        assert abs(disc - 1.0 / 3.0) <= 0.05

    def test_rotation_symmetric_field(self):
        # rotation-invariant limit law; the seed-averaged finite-dim field
        # inherits the symmetry up to fluctuation
        grid = GridSpec.square(0.85, 33, epsilon=1e-6)
        acc = np.zeros((33, 33))
        seeds = (101, 102, 103)
        for seed in seeds:
            t = realize(build_m2_free_m2(64, seed), "W1F12")
            acc += logdet_field(t, grid).values
        acc /= len(seeds)
        assert np.abs(acc - np.rot90(acc, -1)).max() <= 0.05

    def test_predicate_on_single_axis_broadcasts(self):
        t = np.diag([0.0, 1.0])
        g = GridSpec(
            x_min=-0.7, x_max=1.7, y_min=-1.2, y_max=1.2, nx=65, ny=65, epsilon=1e-9
        )
        fld = logdet_field(t, g)
        total = mass_in_region(fld, lambda x, y: x < 0.5) + mass_in_region(
            fld, lambda x, y: x >= 0.5
        )
        assert total == pytest.approx(fld.total_mass(), abs=1e-12)


@pytest.fixture(scope="module")
def small_field():
    t = np.diag([0.1, 0.6])
    g = GridSpec(
        x_min=-0.5, x_max=1.0, y_min=-0.5, y_max=0.5, nx=7, ny=5, epsilon=1e-8
    )
    return logdet_field(t, g)


class TestExports:
    def test_field_csv_shape(self, small_field):
        lines = field_csv_text(small_field).strip().split("\n")
        assert lines[0] == "x,y,value,mass"
        assert len(lines) == 1 + 7 * 5
        # boundary rows have an empty mass column
        first = lines[1].split(",")
        assert len(first) == 4 and first[3] == ""
        # an interior row carries a parseable mass
        interior = lines[1 + 1 * 5 + 1].split(",")
        float(interior[3])

    def test_mass_csv_shape(self, small_field):
        lines = mass_csv_text(small_field).strip().split("\n")
        assert lines[0] == "x,y,mass"
        assert len(lines) == 1 + 5 * 3

    def test_metadata_contents(self, small_field):
        meta = field_metadata(small_field, runtime_s=1.25)
        assert meta["grid"]["nx"] == 7
        assert meta["epsilon"] == 1e-8
        assert meta["path"] == "svd"
        assert meta["flagged_nodes"] == []
        assert meta["total_mass"] == pytest.approx(small_field.total_mass())
        assert meta["runtime_s"] == 1.25
        assert meta["noise_floor"] == small_field.noise_floor

    def test_metadata_floor_null_below_five_nodes(self):
        # fourth differences need five nodes per axis, so the floor is inf
        # and is written as JSON null
        g = GridSpec(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=4, ny=4)
        fld = logdet_field(np.diag([0.3, 0.4]), g)
        assert fld.noise_floor == math.inf
        meta = field_metadata(fld)
        assert meta["noise_floor"] is None
        assert meta["total_mass"] == fld.total_mass()
