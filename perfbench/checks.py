"""Output checks for the benchmark's workloads.

Every check recomputes what it compares against with plain numpy/scipy, or
tests a property the method must have.  Nothing here imports freeprob, and
no stored copy of an earlier output serves as a reference.  Each function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)
# eigenvalues below this modulus count as the W1F12 kernel; the measured
# kernel sits near 1e-14 and the smallest nonzero modulus near 1e-2
KERNEL_RADIUS = 1e-8
# DKW level for the KS bound: P(KS > eps) <= 2 exp(-2 n eps^2) = KS_ALPHA
KS_ALPHA = 1e-3
SUPPORT_MARGIN = 0.05
FIELD_NODE_ATOL = 1e-9
# total mass within this of 1; quadrant masses within this plus 1/N for
# every eigenvalue within one cell of an axis, whose mass the discrete
# Laplacian may put on nodes across it
QUADRANT_ATOL = 0.01
SUBSPACE_ATOL = 1e-8


# -- spectra -------------------------------------------------------------------


def read_complex_csv(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0] + 1j * data[:, 1]


def w1f12_cdf(r: np.ndarray) -> np.ndarray:
    """Ball mass 1/(2(1-r^2)) with the atom 1/2 at the origin."""
    rc = np.clip(r, 0.0, SQRT_HALF)
    return np.where(r >= SQRT_HALF, 1.0, 0.5 / (1.0 - rc**2))


def nilpotent_cdf(r: np.ndarray) -> np.ndarray:
    """Ball mass r^2/(1-r^2) on [0, 1/sqrt 2]."""
    rc = np.clip(r, 0.0, SQRT_HALF)
    return np.where(r >= SQRT_HALF, 1.0, rc**2 / (1.0 - rc**2))


# tag -> (radial coordinate of an eigenvalue, closed-form CDF in it)
SPECTRA_LAWS = {
    "W1F12": (np.abs, w1f12_cdf),
    "E12_plus_F12": (np.abs, nilpotent_cdf),
    "W1_plus_F12": (lambda z: np.abs(z * z - 1.0), nilpotent_cdf),
}


def ks_statistic(radii: np.ndarray, cdf) -> float:
    """Two-sided KS distance; the model's left limit at radius 0 is 0."""
    r = np.sort(np.asarray(radii, dtype=float))
    n = r.size
    model = cdf(r)
    model_left = np.where(r > 0.0, model, 0.0)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - model), np.max(model_left - (i - 1) / n)))


def ks_bound(n: int) -> float:
    return math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))


def check_spectrum(tag: str, eigenvalues: np.ndarray, dim: int) -> list[str]:
    problems = []
    if eigenvalues.size != dim:
        problems.append(f"{eigenvalues.size} eigenvalues, expected {dim}")
        return problems
    coordinate, cdf = SPECTRA_LAWS[tag]
    radii = coordinate(eigenvalues)
    if tag == "W1F12":
        kernel = float(np.mean(radii < KERNEL_RADIUS))
        if abs(kernel - 0.5) > 0.02:
            problems.append(f"kernel fraction {kernel:.4f} not within 0.02 of 1/2")
        radii = np.where(radii < KERNEL_RADIUS, 0.0, radii)
    ks = ks_statistic(radii, cdf)
    if ks > ks_bound(dim):
        problems.append(f"KS {ks:.4f} above the DKW bound {ks_bound(dim):.4f}")
    worst = float(radii.max())
    if worst > SQRT_HALF + SUPPORT_MARGIN:
        problems.append(f"radius {worst:.4f} beyond 1/sqrt(2) + {SUPPORT_MARGIN}")
    return problems


# -- words -------------------------------------------------------------------


def centered(x: np.ndarray) -> np.ndarray:
    return x - (np.trace(x) / x.shape[0]) * np.eye(x.shape[0])


def ntrace(x: np.ndarray) -> complex:
    return complex(np.trace(x)) / x.shape[0]


def alternating_trace(w1: np.ndarray, v1: np.ndarray) -> complex:
    """tau(c(W1) c(V1) c(W1) c(V1)) by plain products."""
    cw, cv = centered(w1), centered(v1)
    return ntrace(cw @ cv @ cw @ cv)


def factorization_sides(a, b, c, d, z) -> tuple[complex, complex]:
    """tau((AZB)*(CZD)) and tau(A*C) tau(B*D) tau(Z*Z)."""
    lhs = ntrace((a @ z @ b).conj().T @ (c @ z @ d))
    rhs = ntrace(a.conj().T @ c) * ntrace(b.conj().T @ d) * ntrace(z.conj().T @ z)
    return lhs, rhs


def check_words(
    residuals: dict,
    trace_program: complex,
    trace_numpy: complex,
    gap_sides: tuple[complex, complex],
    gap_numpy: tuple[complex, complex],
) -> list[str]:
    problems = []
    if not residuals:
        problems.append("no identity residuals reported")
    for name, value in residuals.items():
        if not value <= 1e-10:
            problems.append(f"identity residual {name} = {value:.3e} above 1e-10")
    if abs(trace_program - trace_numpy) > 1e-10:
        problems.append(
            f"word trace {trace_program:.6g} differs from numpy {trace_numpy:.6g}"
        )
    if not abs(trace_numpy) < 0.1:
        problems.append(f"alternating centered trace |tau| = {abs(trace_numpy):.4f}")
    for side, ref in zip(gap_sides, gap_numpy):
        if abs(side - ref) > 1e-10:
            problems.append(f"factorization side {side:.6g} differs from numpy {ref:.6g}")
    gap = abs(gap_numpy[0] - gap_numpy[1])
    if not gap < 0.05:
        problems.append(f"factorization gap {gap:.4f} not below 0.05")
    return problems


# -- field ---------------------------------------------------------------------


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def logdet_value(matrix: np.ndarray, lam: complex, epsilon: float) -> float:
    """(1/2N) sum ln(sigma_i^2 + eps) for matrix - lam from a full SVD."""
    n = matrix.shape[0]
    sigma = np.linalg.svd(matrix - lam * np.eye(n), compute_uv=False)
    return float(np.sum(np.log(sigma**2 + epsilon)) / (2 * n))


def field_epsilon(matrix: np.ndarray) -> float:
    return 1e-6 * float(np.linalg.svd(matrix, compute_uv=False)[0]) ** 2


def check_field_nodes(
    matrix: np.ndarray, rows: list[dict], picks: list[int], epsilon: float
) -> list[str]:
    problems = []
    for idx in picks:
        row = rows[idx]
        lam = complex(float(row["x"]), float(row["y"]))
        want = logdet_value(matrix, lam, epsilon)
        got = float(row["value"])
        if not abs(got - want) <= FIELD_NODE_ATOL:
            problems.append(f"field at {lam:.4f} is {got!r}, SVD gives {want!r}")
    return problems


def check_quadrant_masses(matrix: np.ndarray, mass_rows: list[dict]) -> list[str]:
    eigs = np.linalg.eigvals(matrix)
    n = eigs.size
    x = np.array([float(r["x"]) for r in mass_rows])
    y = np.array([float(r["y"]) for r in mass_rows])
    mass = np.array([float(r["mass"]) for r in mass_rows])
    cell = max(np.diff(np.unique(x)).max(), np.diff(np.unique(y)).max())
    near_axis = int(np.sum(np.minimum(np.abs(eigs.real), np.abs(eigs.imag)) < cell))
    tol = QUADRANT_ATOL + near_axis / n
    problems = []
    total = float(mass.sum())
    if not abs(total - 1.0) <= QUADRANT_ATOL:
        problems.append(f"total mass {total:.4f}, expected 1 within {QUADRANT_ATOL}")
    for sx in (1, -1):
        for sy in (1, -1):
            got = float(mass[(np.sign(x) == sx) & (np.sign(y) == sy)].sum())
            want = int(np.sum((np.sign(eigs.real) == sx) & (np.sign(eigs.imag) == sy))) / n
            if not abs(got - want) <= tol:
                problems.append(
                    f"quadrant ({sx:+d},{sy:+d}) mass {got:.4f}, "
                    f"eigenvalue share {want:.4f}, tolerance {tol:.4f}"
                )
    return problems


# -- algebra ---------------------------------------------------------------------


def expected_closure_dim(family: str, n: int, k: int) -> int:
    return {"ginibre": n * n, "triangular": n * (n + 1) // 2, "blocks": k * k + (n - k) ** 2}[
        family
    ]


def subspace_residual(basis: np.ndarray, generator: np.ndarray) -> float:
    """||(I - P) g P|| for the orthogonal projection P onto span(basis)."""
    q, _ = np.linalg.qr(basis)
    p = q @ q.conj().T
    return float(np.linalg.norm((np.eye(p.shape[0]) - p) @ generator @ p, 2))


def check_algebra(report: dict, family: str, n: int, k: int, generators) -> list[str]:
    problems = []
    want = expected_closure_dim(family, n, k)
    if report["closure_dim"] != want:
        problems.append(f"closure dim {report['closure_dim']}, expected {want} ({family})")
    full = report["closure_dim"] == n * n
    if report["transitive"] != full:
        problems.append(f"transitive={report['transitive']} but closure dim {report['closure_dim']}")
    if report["kfold"]["result"] != full:
        problems.append(f"k-fold verdict {report['kfold']['result']} but closure dim {report['closure_dim']}")
    sub = report["subspace"]
    if (sub is None) != report["transitive"]:
        problems.append("subspace presence disagrees with the transitivity verdict")
    if sub is not None:
        basis = np.array([[complex(re, im) for re, im in col] for col in sub["basis"]]).T
        dim = basis.shape[1] if basis.ndim == 2 else 0
        if not 0 < dim < n:
            problems.append(f"subspace dimension {dim} outside (0, {n})")
        else:
            for i, g in enumerate(generators):
                resid = subspace_residual(basis, g)
                if not resid <= SUBSPACE_ATOL:
                    problems.append(f"||(I-P) g{i} P|| = {resid:.3e} above {SUBSPACE_ATOL}")
    return problems

