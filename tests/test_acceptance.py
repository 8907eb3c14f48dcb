"""Acceptance criteria: one test per criterion, each printing its verdict line.

The criteria run once per session (they share eigensolves and a frozen master
seed); each test prints the one-line verdict for its criterion and fails with
the recorded evidence if the criterion failed.  Run with -s to see the lines
on a green suite.
"""

import itertools
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
    assert result.details[1].startswith("100 instances failed")
    # no detail line may claim the verification or the 2-fold agreement
    assert not any("re-verified" in d or "no disagreement" in d for d in result.details)


def test_criterion_9_cli_reproducibility(results):
    _check(results, 9)


def _slow_clock(monkeypatch, step: float) -> None:
    # each reading is step seconds after the one before
    ticks = itertools.count(0.0, step)
    monkeypatch.setattr(acceptance.time, "time", lambda: next(ticks))


def test_runner_fails_a_criterion_past_its_bound(monkeypatch):
    _slow_clock(monkeypatch, 5.0)
    result = acceptance._criterion_1()
    # the check itself holds; only the 1 s bound fails it
    assert result.runtime_s >= 5.0
    assert not result.passed
    assert result.details[-1] == f"runtime {result.runtime_s:.2f} s (bound 1 s)"


def test_runner_ignores_the_clock_without_a_bound(monkeypatch):
    _slow_clock(monkeypatch, 1e6)
    result = acceptance._criterion_7()
    assert result.runtime_s >= 1e6
    assert result.passed
    assert result.details[-1] == f"runtime {result.runtime_s:.2f} s (no bound)"


def test_report_shape(results):
    assert results.total == 9
    assert results.master_seed == acceptance.MASTER_SEED
    assert [r.number for r in results.results] == list(range(1, 10))
    payload = results.to_json()
    # the report must be plain JSON for the verify command to write
    text = json.dumps(payload)
    assert json.loads(text)["total"] == 9
    assert len(results.lines) == 9


def test_report_key_sets(results):
    payload = results.to_json()
    assert set(payload) == {"master_seed", "passed", "total", "all_passed", "criteria"}
    for criterion in payload["criteria"]:
        assert set(criterion) == {
            "number", "title", "passed", "headline", "runtime_s", "details", "notes",
        }
        assert criterion["details"][-1].startswith("runtime ")


def test_density_adjudication_recorded(results):
    notes = results.results[3].notes
    assert any("density adjudication" in note for note in notes)
    assert any("rho/(1-rho)" in note for note in notes)
    # closed forms: sqrt(2) + ln(1 + sqrt(2)) and the truncated 1/rho integral
    assert any("integrates to 2.2956, not 1" in note for note in notes)
    assert any("already integrates to 7.4)" in note for note in notes)
