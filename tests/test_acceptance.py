"""Acceptance criteria: one test per criterion, each printing its verdict line.

The criteria run once per session (they share eigensolves and a frozen master
seed); each test prints the one-line verdict for its criterion and fails with
the recorded evidence if the criterion failed.  Run with -s to see the lines
on a green suite.
"""

import dataclasses
import itertools
import json

import pytest

from freeprob import acceptance, algstruct, measures, rdiagonal
from freeprob.matmodel import build_m2_free_m2, spectrum
from freeprob.rdiagonal import OperatorTag


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


def test_criterion_1_fails_on_a_wrong_psi(monkeypatch):
    # a relative error of 1e-9 in psi moves S by about 3e-6, past the bound
    exact = measures._psi_raw
    monkeypatch.setattr(
        measures, "_psi_raw", lambda m, z, squared=False: exact(m, z, squared) * (1.0 + 1e-9)
    )
    assert not acceptance._criterion_1().passed


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
    # the orbit route runs only after a lattice pass, and the detail says so
    assert results.results[7].details[2] == (
        "2-fold transitivity: the projection-lattice route runs on every "
        "instance, and the orbit-rank route confirms every lattice pass "
        "with no disagreement"
    )


def test_criterion_8_counts_failed_verification(monkeypatch):
    # no candidate subspace re-verifies, so every instance's subspace search
    # or 2-fold decision raises, and the criterion must count it and fail
    monkeypatch.setattr(algstruct, "_invariance_residual", lambda gens, scales, vectors: 1.0)
    result = acceptance._criterion_8()
    assert not result.passed
    assert "100 failed verifications" in result.headline
    assert result.details[0] == "0 transitive instances, 0 with invariant subspaces"
    assert result.details[1].startswith("100 instances failed")
    # no detail line may claim the verification or the 2-fold agreement
    assert not any("re-verified" in d or "no disagreement" in d for d in result.details)


def test_criterion_9_cli_reproducibility(results):
    _check(results, 9)
    assert results.results[8].details[:3] == (
        "rdiag runs a, b (repeated): output digests matched",
        "simulate runs a, b (repeated with one seed): output digests matched",
        "field runs a, b, c (at 1, 4 and again 1 worker threads; rows are "
        "assembled by index): output digests matched",
    )


def test_criterion_9_reports_a_digest_mismatch(monkeypatch):
    # every run reads as different from the one before, so each command's
    # comparison fails and no detail line may claim identical outputs
    counter = itertools.count()
    monkeypatch.setattr(acceptance, "_output_digests", lambda out: {"out": str(next(counter))})
    result = acceptance._criterion_9()
    assert not result.passed
    assert "rdiag: repeated runs produced different digests" in result.headline
    assert all(d.endswith("output digests differed") for d in result.details[:3])
    assert not any("identical" in d or "matched" in d for d in result.details)


def test_criterion_9_reports_a_failed_run(monkeypatch):
    # a run that exits non-zero writes no outputs; the criterion must say so
    # instead of failing to read them
    monkeypatch.setattr(acceptance, "_run_cli", lambda argv: 3)
    result = acceptance._criterion_9()
    assert not result.passed
    assert result.headline.startswith("rdiag run a exited 3; rdiag run b exited 3")
    assert not any("matched" in d for d in result.details)


def _slow_clock(monkeypatch, step: float) -> None:
    # each reading is step seconds after the one before
    ticks = itertools.count(0.0, step)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(ticks))


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


def test_ks_legs_fail_on_a_stretched_law(monkeypatch):
    # one dim-1024 model of criteria 3-5's first seed passes both KS legs
    # against the catalog laws, and fails both once each law is stretched by 2%
    model = build_m2_free_m2(
        acceptance.SPECTRA_DIM // 2, acceptance._child_seeds("criteria-3-4-5-spectra", 1)[0]
    )
    tags = (OperatorTag.W1F12, OperatorTag.E12_plus_F12)
    eigenvalues = {tag: [spectrum(model, tag)] for tag in tags}

    def legs():
        checks = (acceptance._criterion_3, acceptance._criterion_4)
        return {leg.headline: leg.passed for leg in (check(lambda: eigenvalues) for check in checks)}

    assert all((verdicts := legs()).values()), verdicts
    for tag in tags:
        law = rdiagonal.CATALOG[tag]
        stretched = dataclasses.replace(
            law, ball=lambda r, ball=law.ball: ball(r / 1.02), support_outer=law.support_outer * 1.02
        )
        monkeypatch.setitem(rdiagonal.CATALOG, tag, stretched)
    assert not any((verdicts := legs()).values()), verdicts


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
