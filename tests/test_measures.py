"""Transforms of scalar measures: frozen values, route selection,
closed-form versus numeric agreement, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from freeprob import measures
from freeprob.errors import DomainError, MeasureFormatError
from freeprob.measures import (
    ScalarMeasure,
    _psi_raw,
    chi_inverse,
    chi_vector,
    moment,
    psi_transform,
    s_transform,
)

BERNOULLI = ScalarMeasure(((0.0, 0.5), (1.0, 0.5)))
DIRAC_ONE = ScalarMeasure(((1.0, 1.0),))
TWO_ATOM = ScalarMeasure(((1.0, 0.5), (4.0, 0.5)))

# Independent oracle: brentq on 0.5 z/(1-z) + 2 z/(1-4z) = -0.25 over (-10, 0),
# frozen from a run with xtol=1e-16.
TWO_ATOM_CHI_AT_MINUS_QUARTER = -0.14766682272156378


def _normalized(xs, fs):
    xs, fs = np.asarray(xs, dtype=float), np.asarray(fs, dtype=float)
    return ScalarMeasure((), tuple(zip(xs.tolist(), (fs / np.trapezoid(fs, xs)).tolist())))


# a density away from 0, one touching 0 with f(0) > 0, one vanishing at 0
DENSITIES = {
    "away": _normalized(np.linspace(0.5, 2.0, 13), 1.0 + 0.5 * np.sin(np.arange(13.0))),
    "touching": _normalized(np.linspace(0.0, 1.0, 11), [3, 2, 2.5, 1, 0, 0.5, 1, 1, 2, 0.25, 0]),
    "vanishing": ScalarMeasure((), ((0.0, 0.0), (1.0, 2.0))),
}


def _quad_psi(measure, z, power):
    # psi of the law of t^power, by quad split at the density's nodes
    xs, fs = np.array(measure.density).T
    integrand = lambda t: np.interp(t, xs, fs) * t**power * z / (1.0 - t**power * z)
    return sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0] for a, b in zip(xs, xs[1:]))


def _oracle_arguments(measure, power):
    # negative z on both sides of the series cut |z| x_max^power = 0.05,
    # down to 1e-10
    scale = measure.max_support**power
    near = 0.05 * np.array([0.999, 1.001])
    return -np.concatenate((np.geomspace(1e-10, 1e3, 27), near)) / scale


def corpus():
    xs = tuple(np.linspace(0.5, 1.5, 101))
    dens = tuple(zip(xs, [0.5] * 101))
    return [
        BERNOULLI,
        TWO_ATOM,
        ScalarMeasure(((0.5, 0.5), (1.5, 0.5))),
        ScalarMeasure(((0.0, 0.25), (1.0, 0.25), (2.0, 0.5))),
        ScalarMeasure(((0.25, 0.5),), dens),
    ]


class TestConstruction:
    def test_atoms_sorted_and_merged(self):
        m = ScalarMeasure(((2.0, 0.25), (1.0, 0.5), (2.0, 0.25)))
        assert m.atoms == ((1.0, 0.5), (2.0, 0.5))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(MeasureFormatError):
            ScalarMeasure(((1.0, 0.7),))

    def test_negative_location_rejected(self):
        with pytest.raises(MeasureFormatError):
            ScalarMeasure(((-1.0, 1.0),))

    def test_negative_density_rejected(self):
        with pytest.raises(MeasureFormatError):
            ScalarMeasure(((1.0, 1.0),), ((0.0, -0.1), (1.0, 0.1)))

    def test_non_finite_density_rejected(self):
        # a NaN sample once slipped through because NaN compares false
        for bad in (math.nan, math.inf):
            with pytest.raises(MeasureFormatError, match="finite"):
                ScalarMeasure(((0.0, 0.5),), ((0.0, bad), (1.0, 1.0)))
        with pytest.raises(MeasureFormatError, match="finite"):
            ScalarMeasure(((0.0, 0.5),), ((0.0, 0.5), (math.inf, 0.5)))

    def test_unsorted_density_grid_rejected(self):
        with pytest.raises(MeasureFormatError):
            ScalarMeasure((), ((1.0, 1.0), (0.5, 1.0)))

    def test_json_round_trip(self):
        for m in corpus():
            again = ScalarMeasure.from_json(m.to_json())
            assert again == m

    def test_bad_json_reports_format_error(self):
        with pytest.raises(MeasureFormatError):
            ScalarMeasure.from_json("{not json")
        with pytest.raises(MeasureFormatError):
            ScalarMeasure.from_json("[1, 2]")


class TestMoment:
    def test_zeroth_moment_is_exactly_one(self):
        for m in corpus():
            assert moment(m, 0) == 1.0

    def test_two_atom_second_moment(self):
        assert moment(TWO_ATOM, 2) == pytest.approx(8.5, abs=1e-14)

    def test_dirac_moments(self):
        assert moment(DIRAC_ONE, 3) == 1.0

    def test_mean_matches_psi_derivative_at_zero(self):
        # one-sided finite difference of psi at 0 from the left equals the
        # first moment, up to h times the second moment
        h = 1e-8
        for m in corpus():
            fd = (psi_transform(m, 0.0) - psi_transform(m, -h)) / h
            assert fd == pytest.approx(moment(m, 1), abs=1e-6)


class TestPsi:
    def test_half_atom_values(self):
        # psi(z) = z / (2 (1 - z))
        assert psi_transform(BERNOULLI, -1.0) == pytest.approx(-0.25, abs=1e-14)
        assert psi_transform(BERNOULLI, 0.0) == 0.0

    def test_dirac_value(self):
        assert psi_transform(DIRAC_ONE, -1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_pole_raises(self):
        # the Dirac at 1 has its pole at z = 1, off the half-line z <= 0:
        # psi stays finite as z runs down to -inf, and the pole is refused
        assert psi_transform(DIRAC_ONE, -1e300) == pytest.approx(-1.0, abs=1e-14)
        with pytest.raises(DomainError):
            psi_transform(DIRAC_ONE, 1.0)

    def test_out_of_branch_raises(self):
        with pytest.raises(DomainError):
            psi_transform(DIRAC_ONE, 1.5)

    def test_positive_argument_raises(self):
        # psi is taken on z <= 0 only, also short of the pole
        for z in (5e-324, 0.5, math.nan):
            with pytest.raises(DomainError):
                psi_transform(DIRAC_ONE, z)


class TestDensityOracle:
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_psi_against_quad(self, name):
        m = DENSITIES[name]
        for z in _oracle_arguments(m, 1):
            assert psi_transform(m, z) == pytest.approx(_quad_psi(m, z, 1), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_squared_psi_against_quad(self, name):
        m = DENSITIES[name]
        zs = _oracle_arguments(m, 2)
        zs = zs[zs < 0.0]
        got = _psi_raw(m, zs, squared=True)
        want = [_quad_psi(m, z, 2) for z in zs]
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_moments_against_gauss_legendre(self, name):
        # four Gauss-Legendre nodes per piece integrate degree <= 7 exactly
        m = DENSITIES[name]
        xs, fs = np.array(m.density).T
        nodes, weights = np.polynomial.legendre.leggauss(4)
        for k in range(1, 5):
            want = 0.0
            for a, b in zip(xs, xs[1:]):
                t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
                want += 0.5 * (b - a) * np.sum(weights * np.interp(t, xs, fs) * t**k)
            assert moment(m, k) == pytest.approx(want, abs=1e-14)


class TestChi:
    def test_bernoulli_closed_form(self):
        # chi(y) = 2y / (1 + 2y)
        assert chi_inverse(BERNOULLI, -0.25) == pytest.approx(-1.0, abs=1e-14)

    def test_dirac(self):
        # chi(y) = y / (1 + y)
        assert chi_inverse(DIRAC_ONE, -0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_two_atom_against_frozen_oracle(self):
        got = chi_inverse(TWO_ATOM, -0.25)
        assert got == pytest.approx(TWO_ATOM_CHI_AT_MINUS_QUARTER, abs=1e-13)
        # recompute the oracle in place to keep the frozen value honest
        f = lambda z: 0.5 * z / (1 - z) + 2 * z / (1 - 4 * z) + 0.25
        assert brentq(f, -10.0, 0.0, xtol=1e-15) == pytest.approx(got, abs=1e-12)

    def test_round_trip_over_corpus(self):
        for m in corpus():
            lower = m.mass_at(0.0) - 1.0
            for y in np.linspace(lower + 1e-3, 0.0, 17):
                z = chi_inverse(m, y, method="numeric")
                assert abs(psi_transform(m, z) - y) <= 1e-10

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            chi_inverse(BERNOULLI, -0.75)
        for method in ("closed", "numeric"):
            with pytest.raises(DomainError):
                chi_inverse(BERNOULLI, math.nan, method=method)
        # no atom at the top of the support, so psi stays bounded above
        xs = tuple(np.linspace(0.5, 1.5, 101))
        flat = ScalarMeasure(((0.25, 0.5),), tuple(zip(xs, [0.5] * 101)))
        with pytest.raises(DomainError):
            chi_inverse(flat, 1e9, method="numeric")

    def test_method_selects_the_route(self):
        # auto takes the closed form on two atoms; numeric is one bisection
        assert chi_inverse(BERNOULLI, -0.25) == chi_inverse(BERNOULLI, -0.25, method="closed")
        bisected = float(chi_vector(BERNOULLI, np.array([-0.25]))[0])
        assert chi_inverse(BERNOULLI, -0.25, method="numeric") == bisected
        for method in ("auto", "closed", "numeric"):
            assert chi_inverse(BERNOULLI, 0.0, method=method) == 0.0

    def test_positive_argument_raises(self):
        # chi is the inverse of psi on z <= 0, whose values are <= 0
        for method in ("auto", "closed", "numeric"):
            with pytest.raises(DomainError):
                chi_inverse(BERNOULLI, 0.25, method=method)
        for squared in (False, True):
            for ys in ([0.25], [-0.25, 0.25], [-0.25, 5e-324]):
                with pytest.raises(DomainError):
                    chi_vector(TWO_ATOM, np.array(ys), squared=squared)

    def test_squared_chi_matches_squared_atoms(self):
        ys = np.linspace(-0.99, -0.01, 25)
        squared = ScalarMeasure(((1.0, 0.5), (16.0, 0.5)))
        assert np.array_equal(chi_vector(TWO_ATOM, ys, squared=True), chi_vector(squared, ys))
        with pytest.raises(DomainError):
            chi_vector(TWO_ATOM, np.array([0.25]), squared=True)

    def test_unconverged_bisection_raises(self, monkeypatch):
        monkeypatch.setattr(measures, "BISECTION_STEPS", 10)
        with pytest.raises(DomainError, match="float spacing"):
            chi_vector(BERNOULLI, np.array([-0.25]))

    def test_vectorized_chi_matches_scalar(self):
        ys = np.linspace(-0.49, -0.01, 25)
        zs = chi_vector(BERNOULLI, ys)
        for y, z in zip(ys, zs):
            assert z == pytest.approx(chi_inverse(BERNOULLI, y), abs=1e-12)


class TestSTransform:
    def test_bernoulli_value(self):
        # S(w) = 2 (1 + w) / (1 + 2 w) for the half-half measure on {0, 1}
        assert s_transform(BERNOULLI, -0.25) == pytest.approx(3.0, abs=1e-12)

    def test_dirac_is_constant_one(self):
        for w in (-0.9, -0.5, -0.1, 0.0):
            assert s_transform(DIRAC_ONE, w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_extension_is_reciprocal_mean(self):
        assert s_transform(TWO_ATOM, 0.0) == pytest.approx(1.0 / 2.5, abs=1e-14)

    def test_projection_family_closed_form(self):
        # alpha at 1, rest at 0: S(w) = (1 + w) / (alpha + w)
        for alpha in (0.25, 0.5, 0.9):
            m = ScalarMeasure(((0.0, 1 - alpha), (1.0, alpha)))
            ws = np.linspace(-alpha, 0.0, 52)[1:-1]
            for w in ws:
                want = (1 + w) / (alpha + w)
                assert s_transform(m, w) == pytest.approx(want, abs=1e-10)
                assert s_transform(m, w, method="numeric") == pytest.approx(want, abs=1e-10)

    def test_closed_and_numeric_paths_agree(self):
        ws = np.linspace(-0.5, 0.0, 52)[1:-1]
        for w in ws:
            a = s_transform(BERNOULLI, w, method="closed")
            b = s_transform(BERNOULLI, w, method="numeric")
            assert abs(a - b) <= 1e-10

    def test_strictly_decreasing_for_non_dirac(self):
        for m in corpus():
            lower = m.mass_at(0.0) - 1.0
            ws = np.linspace(lower + 1e-4, -1e-4, 60)
            vals = [s_transform(m, w, method="numeric") for w in ws]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            s_transform(BERNOULLI, 0.25)
        with pytest.raises(DomainError):
            s_transform(BERNOULLI, -0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.1, 8.0, allow_nan=False),
            st.integers(1, 5),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda p: p[0],
    )
)
def test_round_trip_property(raw):
    # random atomic measures: psi(chi(y)) = y across (-1, 0)
    weight = sum(w for _, w in raw)
    m = ScalarMeasure(tuple((loc, w / weight) for loc, w in raw))
    ys = np.array([-0.99, -0.6, -0.25, -1e-3])
    singles = np.array([chi_inverse(m, y, method="numeric") for y in ys])
    # one call on all the arguments gives the one-element results
    zs = chi_vector(m, ys)
    assert np.array_equal(zs, singles)
    for y, z in zip(ys, zs):
        assert abs(psi_transform(m, z) - y) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95))
def test_projection_family_property(alpha):
    m = ScalarMeasure(((0.0, 1 - alpha), (1.0, alpha)))
    w = -alpha / 2
    assert s_transform(m, w) == pytest.approx((1 + w) / (alpha + w), abs=1e-10)
