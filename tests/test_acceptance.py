"""Acceptance criteria: one test per criterion, each printing its verdict line.

The criteria run once per session (they share eigensolves and a frozen master
seed); each test prints the one-line verdict for its criterion and fails with
the recorded evidence if the criterion failed.  Run with -s to see the lines
on a green suite.
"""

import json

import pytest

from freeprob import acceptance, algstruct


@pytest.fixture(scope="module")
def results():
    return acceptance.run_all()


def _check(results, number: int) -> None:
    result = results.results[number - 1]
    print(result.line)
    assert result.number == number
    evidence = "\n".join((result.line, *result.details))
    assert result.passed, evidence


def test_criterion_1_s_transform_closed_form(results):
    _check(results, 1)


def test_criterion_2_radial_recipe_worked_example(results):
    _check(results, 2)


def test_criterion_3_w1f12_radial_law(results):
    _check(results, 3)


def test_criterion_4_e12_plus_f12_radial_law(results):
    _check(results, 4)


def test_criterion_5_squared_w1_plus_f12_law(results):
    _check(results, 5)


def test_criterion_6_field_laplacian_mass(results):
    _check(results, 6)


def test_criterion_7_freeness_identities(results):
    _check(results, 7)


def test_criterion_8_algebra_suite(results):
    _check(results, 8)


def test_criterion_8_counts_failed_verification(monkeypatch):
    # no candidate subspace re-verifies, so every instance's subspace search
    # or 2-fold decision raises, and the criterion must count it and fail
    monkeypatch.setattr(algstruct, "_invariance_residual", lambda gens, vectors: 1.0)
    result = acceptance._criterion_8()
    assert not result.passed
    assert "100 failed verifications" in result.headline
    assert result.details[0] == "0 transitive instances, 0 with invariant subspaces"


def test_criterion_9_cli_reproducibility(results):
    _check(results, 9)


def test_report_shape(results):
    assert results.total == 9
    assert results.master_seed == acceptance.MASTER_SEED
    assert [r.number for r in results.results] == list(range(1, 10))
    payload = results.to_json()
    # the report must be plain JSON for the verify command to write
    text = json.dumps(payload)
    assert json.loads(text)["total"] == 9
    assert len(results.lines) == 9


def test_density_adjudication_recorded(results):
    notes = results.results[3].notes
    assert any("density adjudication" in note for note in notes)
    assert any("rho/(1-rho)" in note for note in notes)
