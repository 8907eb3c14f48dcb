"""Each output check accepts a good output and rejects a corrupted one.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from freeprob import cli  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from worker import ginibre, write_matrix  # noqa: E402


# -- spectra -----------------------------------------------------------------------


def nilpotent_quantiles(n: int) -> np.ndarray:
    """Radii at the midpoint quantiles of r^2/(1-r^2), so KS is exactly 1/(2n)."""
    u = (np.arange(n) + 0.5) / n
    return np.sqrt(u / (1.0 + u))


def test_spectrum_law_sample_passes():
    n = 1024
    r = nilpotent_quantiles(n // 2)
    angles = np.linspace(0.0, 2 * math.pi, n // 2, endpoint=False)
    eigs = np.concatenate([np.zeros(n // 2), r * np.exp(1j * angles)])
    assert checks.check_spectrum("W1F12", eigs, n) == []


def test_spectrum_from_program_passes(tmp_path):
    assert cli.main(["simulate", "--tag", "E12_plus_F12", "--dim", "256", "--seeds", "1",
                     "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    eigs = checks.read_complex_csv(tmp_path / "eigenvalues_seed0.csv")
    assert checks.check_spectrum("E12_plus_F12", eigs, 256) == []


def test_spectrum_rejects_shifted_eigenvalue():
    n = 1024
    r = nilpotent_quantiles(n)
    eigs = r * np.exp(1j * np.linspace(0.0, 2 * math.pi, n, endpoint=False))
    assert checks.check_spectrum("E12_plus_F12", eigs, n) == []
    eigs[7] += 1.0
    assert any("beyond" in p for p in checks.check_spectrum("E12_plus_F12", eigs, n))


def test_spectrum_rejects_missing_eigenvalue_and_wrong_law():
    n = 1024
    eigs = nilpotent_quantiles(n).astype(complex)
    assert checks.check_spectrum("E12_plus_F12", eigs[:-1], n) != []
    # the W1F12 law needs half the spectrum in the kernel
    assert checks.check_spectrum("W1F12", eigs, n) != []


# -- words -------------------------------------------------------------------------


def words_case():
    from freeprob import matmodel

    model = matmodel.build_m2_free_m2(128, 5)
    group = matmodel.build_free_group(256, 5)
    eye = np.eye(256, dtype=complex)
    factors = (group.u_b, eye, group.u_b @ group.u_b, eye, checks.centered(group.u_a))
    gap = matmodel.trace_factorization_check(*factors)
    return (
        matmodel.exact_identity_residuals(model),
        matmodel.word_trace(model, "c(W1) c(V1) c(W1) c(V1)"),
        checks.alternating_trace(model.factor("W1"), model.factor("V1")),
        (gap.lhs, gap.rhs),
        checks.factorization_sides(*factors),
    )


def test_words_rejects_bad_residual_and_trace():
    residuals, tau, tau_np, sides, sides_np = words_case()
    assert checks.check_words(residuals, tau, tau_np, sides, sides_np) == []
    bad = dict(residuals, w1_square_identity=1e-6)
    assert checks.check_words(bad, tau, tau_np, sides, sides_np) != []
    assert checks.check_words(residuals, tau + 1e-6, tau_np, sides, sides_np) != []


# -- field -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def field_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("field")
    matrix = ginibre(np.random.default_rng(11), 12)
    write_matrix(out / "M.json", matrix)
    assert cli.main(["field", "--matrix", str(out / "M.json"), "--grid-n", "40",
                     "--out-dir", str(out)]) == 0
    return matrix, checks.read_rows(out / "field.csv"), checks.read_rows(out / "mass.csv")


def test_field_rejects_perturbed_value(field_output):
    matrix, rows, _ = field_output
    eps = checks.field_epsilon(matrix)
    picks = [5, 333, 800, 1599]
    assert checks.check_field_nodes(matrix, rows, picks, eps) == []
    bad = [dict(row) for row in rows]
    bad[333]["value"] = repr(float(bad[333]["value"]) + 1e-6)
    problems = checks.check_field_nodes(matrix, bad, picks, eps)
    assert len(problems) == 1


def test_field_rejects_moved_mass(field_output):
    matrix, _, mass_rows = field_output
    assert checks.check_quadrant_masses(matrix, mass_rows) == []
    bad = [dict(row) for row in mass_rows]
    # put half the total mass into a far corner cell of the (-,-) quadrant
    bad[0]["mass"] = repr(float(bad[0]["mass"]) + 0.5)
    assert checks.check_quadrant_masses(matrix, bad) != []


def test_field_rejects_scaled_mass(field_output):
    matrix, _, mass_rows = field_output
    bad = [dict(row, mass=repr(1.3 * float(row["mass"]))) for row in mass_rows]
    assert any("total mass" in p for p in checks.check_quadrant_masses(matrix, bad))


# -- algebra -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def algebra_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("algebra")
    rng = np.random.default_rng(2)
    gens = [np.triu(ginibre(rng, 4)) for _ in range(2)]
    paths = [out / "g0.json", out / "g1.json"]
    for path, g in zip(paths, gens):
        write_matrix(path, g)
    assert cli.main(["algebra", *map(str, paths), "--kfold", "2", "--seed", "1",
                     "--out-dir", str(out)]) == 0
    return json.loads((out / "algebra_report.json").read_text()), gens


def test_algebra_rejects_wrong_closure_dim(algebra_output):
    report, gens = algebra_output
    assert checks.check_algebra(report, "triangular", 4, 0, gens) == []
    bad = dict(report, closure_dim=16)
    problems = checks.check_algebra(bad, "triangular", 4, 0, gens)
    assert any("closure dim" in p for p in problems)


def test_algebra_rejects_non_invariant_subspace(algebra_output):
    report, gens = algebra_output
    sub = dict(report["subspace"])
    # the last standard basis vector is not invariant under upper-triangular g
    sub["basis"] = [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    problems = checks.check_algebra(dict(report, subspace=sub), "triangular", 4, 0, gens)
    assert any("(I-P)" in p for p in problems)


# -- tracing ---------------------------------------------------------------------------


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_tracer_sees_nested_calls_and_restores_originals(algebra_output, tmp_path):
    from freeprob import algstruct

    _, gens = algebra_output
    original = algstruct.commutant
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.close_algebra is algstruct.close_algebra
        assert algstruct.commutant is not original
        span = algstruct.close_algebra(gens)
        algstruct.kfold_transitive(span, 2, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert algstruct.commutant is original
    metrics = tracer.raw_metrics()
    assert metrics["algstruct.commutant.calls"] >= 1
    assert metrics["algstruct.kfold_transitive.s"] > 0.0
    assert tracer.peaks["algstruct.commutant.alloc_mb"] > 0.0
    names = {name for _, name, _, _, _ in tracer.spans}
    assert {"algstruct.close_algebra", "algstruct.kfold_transitive", "algstruct.commutant"} <= names
