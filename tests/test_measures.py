"""The moment transform psi of scalar measures: frozen values, closed forms
and quadrature as oracles for the one numeric route, and serialization."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from freeprob.errors import DomainError, MeasureFormatError
from freeprob.measures import ScalarMeasure, _psi_raw, moment, psi_transform

BERNOULLI = ScalarMeasure(((0.0, 0.5), (1.0, 0.5)))
DIRAC_ONE = ScalarMeasure(((1.0, 1.0),))
TWO_ATOM = ScalarMeasure(((1.0, 0.5), (4.0, 0.5)))

# Independent oracle: the z where psi(z) = 0.5 z/(1-z) + 2 z/(1-4z) = -0.25,
# by brentq over (-10, 0), frozen from a run with xtol=1e-16.
TWO_ATOM_Z_AT_MINUS_QUARTER = -0.14766682272156378


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

    @pytest.mark.parametrize("s", [1e-100, 1e100])
    def test_density_moment_far_out(self, s):
        # a flat density on [s/2, 3s/2] has E[t^2] = 13 s^2 / 12, and E[t^4]
        # = 121 s^4 / 80 is refused where it passes the double range
        m = ScalarMeasure((), ((0.5 * s, 1.0 / s), (1.5 * s, 1.0 / s)))
        assert moment(m, 2) == pytest.approx(13.0 / 12.0 * s**2, rel=1e-14)
        if s > 1.0:
            with pytest.raises(DomainError, match="density reaching 1.5e\\+100 puts moment 4"):
                moment(m, 4)

    def test_density_mass_past_1e154(self):
        # the mass of a flat density on [s/2, 3s/2] is read on the scale of
        # its end, where u^2 stays inside the double range
        s = 1e160
        m = ScalarMeasure((), ((0.5 * s, 1.0 / s), (1.5 * s, 1.0 / s)))
        assert moment(m, 1) == pytest.approx(s, rel=1e-14)
        assert math.isfinite(psi_transform(m, -1.0 / s))

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

    def test_two_atom_against_frozen_oracle(self):
        got = psi_transform(TWO_ATOM, TWO_ATOM_Z_AT_MINUS_QUARTER)
        assert got == pytest.approx(-0.25, abs=1e-14)
        # recompute the oracle in place to keep the frozen value honest
        f = lambda z: 0.5 * z / (1 - z) + 2 * z / (1 - 4 * z) + 0.25
        assert brentq(f, -10.0, 0.0, xtol=1e-15) == pytest.approx(
            TWO_ATOM_Z_AT_MINUS_QUARTER, abs=1e-12
        )

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
        # psi is taken on finite z <= 0 only, also short of the pole; at -inf
        # both the atomic and the density branch would make inf / inf
        for m in (DIRAC_ONE, DENSITIES["away"]):
            for z in (5e-324, 0.5, math.nan, -math.inf):
                with pytest.raises(DomainError):
                    psi_transform(m, z)

    def test_squared_psi_matches_squared_atoms(self):
        # the radial recipe's psi of the law of t^2, on atoms
        zs = -np.geomspace(1e-20, 1e20, 41)
        squared = ScalarMeasure(((1.0, 0.5), (16.0, 0.5)))
        assert np.array_equal(_psi_raw(TWO_ATOM, zs, squared=True), _psi_raw(squared, zs))


class TestSTransform:
    # S is read off psi as criterion 1 reads it: at w = psi(z),
    # S(w) = (1 + w) z / w, with no inversion of psi

    def test_projection_family_closed_form(self):
        # alpha at 1, rest at 0: psi(z) = alpha z / (1 - z) and
        # S(w) = (1 + w) / (alpha + w)
        for alpha in (0.25, 0.5, 0.9):
            m = ScalarMeasure(((0.0, 1 - alpha), (1.0, alpha)))
            for z in -np.geomspace(1e-3, 1e3, 25):
                assert psi_transform(m, z) == pytest.approx(alpha * z / (1 - z), abs=1e-14)
            ws = np.linspace(-alpha, 0.0, 52)[1:-1]
            zs = ws / (alpha + ws)
            got = np.array([psi_transform(m, z) for z in zs])
            want = (1 + ws) / (alpha + ws)
            assert np.max(np.abs((1 + got) * zs / got - want)) <= 1e-10


def test_projection_family_property():
    # psi(-1) = -alpha / 2 across the family, where S = (1 + w) / (alpha + w)
    for alpha in np.linspace(0.05, 0.95, 40):
        m = ScalarMeasure(((0.0, 1 - alpha), (1.0, alpha)))
        w = psi_transform(m, -1.0)
        assert w == pytest.approx(-alpha / 2, abs=1e-14)
        assert (1 + w) * -1.0 / w == pytest.approx((1 + w) / (alpha + w), abs=1e-10)


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
