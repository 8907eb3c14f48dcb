"""Radial Brown measures: the annulus recipe against its closed forms."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.optimize import brentq

from freeprob import rdiagonal
from freeprob.errors import DiracInputError, DomainError, MeasureFormatError
from freeprob.measures import ScalarMeasure
from freeprob.rdiagonal import (
    CATALOG,
    OperatorTag,
    RadialPlanarMeasure,
    brown_rdiagonal,
    catalog_brown,
    conditional_cdf,
    pullback_radii,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)

# two equal atoms at 1/2 and 3/2: annulus radii from the moment formulas
# inner = (E[H^-2])^-1/2 = (1/2 (4 + 4/9))^-1/2, outer = (E[H^2])^1/2
TWO_ATOM = ScalarMeasure(atoms=((0.5, 0.5), (1.5, 0.5)))
TWO_ATOM_INNER = (0.5 * (4.0 + 4.0 / 9.0)) ** -0.5
TWO_ATOM_OUTER = math.sqrt(0.5 * (0.25 + 2.25))

BERNOULLI = ScalarMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))


def bernoulli_cdf(r):
    r = np.asarray(r, dtype=float)
    return np.where(r >= SQRT_HALF, 1.0, 1.0 / (2.0 * (1.0 - np.minimum(r, SQRT_HALF) ** 2)))


class TestWorkedExample:
    def test_atom_is_exact(self):
        m = brown_rdiagonal(BERNOULLI)
        assert m.center_atom_mass == 0.5

    def test_outer_radius(self):
        m = brown_rdiagonal(BERNOULLI)
        assert abs(m.support_outer - SQRT_HALF) <= 1e-10

    def test_cdf_supnorm_against_closed_form(self):
        m = brown_rdiagonal(BERNOULLI)
        rs = np.linspace(0.0, SQRT_HALF - 1e-3, 20001)
        gap = np.max(np.abs(np.asarray(m.cdf(rs)) - bernoulli_cdf(rs)))
        assert gap <= 1e-8

    def test_endpoint_mass(self):
        m = brown_rdiagonal(BERNOULLI)
        assert m.cdf(m.support_outer) == 1.0
        # a NaN radius lies in no range of the CDF
        assert math.isnan(m.cdf(math.nan))

    def test_negative_radius_has_no_mass(self):
        # the ball of negative radius is empty, whatever the center atom
        m = brown_rdiagonal(BERNOULLI)
        assert m.cdf(-1.0) == 0.0
        assert np.array_equal(m.cdf([-1.0, -5e-324, 0.0]), [0.0, 0.0, 0.5])
        for law in (m, catalog_brown(OperatorTag.W1F12)):
            assert conditional_cdf(law)(-1.0) == 0.0
            assert np.array_equal(conditional_cdf(law)([-1.0, 0.0]), [0.0, 0.0])

    def test_thin_shell_near_zero_keeps_the_curve_past_it(self):
        # half the mass at 1e-100 is a shell of mass 1/2 at radii near
        # 1e-100; past it the radius map is that of the atom at 0 to within
        # 1e-200, so F(r) = 1/(2(1 - r^2))
        m = brown_rdiagonal(ScalarMeasure(((1e-100, 0.5), (1.0, 0.5))))
        r = 2.0**-10
        assert abs(m.cdf(r) - 1.0 / (2.0 * (1.0 - r * r))) <= 1e-9

    def test_matches_catalog_entry(self):
        m = brown_rdiagonal(BERNOULLI)
        cat = catalog_brown(OperatorTag.W1F12)
        rs = np.linspace(0.0, SQRT_HALF, 4097)
        gap = np.max(np.abs(np.asarray(m.cdf(rs)) - np.asarray(cat.cdf(rs))))
        assert gap <= 1e-8


class TestTwoAtomAnnulus:
    def test_annulus_radii(self):
        m = brown_rdiagonal(TWO_ATOM)
        assert m.support_inner == pytest.approx(TWO_ATOM_INNER, abs=1e-12)
        assert m.support_outer == pytest.approx(TWO_ATOM_OUTER, abs=1e-12)

    def test_no_atom_and_flat_below_inner(self):
        m = brown_rdiagonal(TWO_ATOM)
        assert m.center_atom_mass == 0.0
        assert m.cdf(0.0) == 0.0
        assert m.cdf(m.support_inner * 0.5) == 0.0

    def test_cdf_spans_zero_to_one(self):
        m = brown_rdiagonal(TWO_ATOM)
        assert m.cumulative[0] == 0.0
        assert m.cumulative[-1] == 1.0
        assert np.all(np.diff(m.cumulative) >= 0.0)

    def test_sample_count_is_independent_of_values(self, monkeypatch):
        def recipe(samples):
            monkeypatch.setattr(rdiagonal, "CDF_SAMPLES", samples)
            return brown_rdiagonal(TWO_ATOM)

        coarse, fine = recipe(513), recipe(4097)
        assert coarse.radii.size == 513 and fine.radii.size == 4097
        probe = np.linspace(TWO_ATOM_INNER, TWO_ATOM_OUTER, 2001)
        gap = np.max(np.abs(np.asarray(coarse.cdf(probe)) - np.asarray(fine.cdf(probe))))
        assert gap <= 1e-7

    def test_inner_edge_against_the_exact_curve(self):
        # points of the curve at z = -a from sums free of cancellation near
        # the inner edge: t = sum m / (1 + a s^2) and r^2 = (1 - t) / (t a)
        a = np.geomspace(1e2, 1e12, 201)
        t = np.sum(0.5 / (1.0 + np.outer(a, [0.25, 2.25])), axis=1)
        r = np.sqrt((1.0 - t) / (t * a))
        gap = np.max(np.abs(np.asarray(brown_rdiagonal(TWO_ATOM).cdf(r)) - t))
        assert gap <= 1e-9

    def test_atom_order_invariance(self):
        flipped = brown_rdiagonal(ScalarMeasure(atoms=((1.5, 0.5), (0.5, 0.5))))
        base = brown_rdiagonal(TWO_ATOM)
        assert np.array_equal(flipped.radii, base.radii)
        assert np.array_equal(flipped.cumulative, base.cumulative)

    @pytest.mark.parametrize(
        "scale", [1e-300, 1e-200, 1e-150, 1e-100, 1e-30, 1e30, 1e100, 1e150, 1e200, 1e300]
    )
    def test_cdf_is_scale_free(self, scale):
        # U (sH) is s U H, so its radial CDF at s r is the base CDF at r; psi,
        # the radii and the refusals are read on the measure scaled to a
        # support ending in [1, 2), so the z grid is the same at every s
        base = brown_rdiagonal(TWO_ATOM)
        scaled = brown_rdiagonal(ScalarMeasure(((0.5 * scale, 0.5), (1.5 * scale, 0.5))))
        probe = np.linspace(TWO_ATOM_INNER, TWO_ATOM_OUTER, 101)
        gap = np.max(np.abs(np.asarray(scaled.cdf(probe * scale)) - np.asarray(base.cdf(probe))))
        assert gap <= 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_density_cdf_is_scale_free(self, scale):
        # a quarter of the mass at 0 and a flat density on [s/2, 3s/2]: its
        # mass and second moment must be read without u^2 or u^4 leaving the
        # double range
        def flat(s):
            return ScalarMeasure(((0.0, 0.25),), tuple((x * s, 0.75 / s) for x in (0.5, 1.0, 1.5)))

        base = brown_rdiagonal(flat(1.0))
        scaled = brown_rdiagonal(flat(scale))
        probe = np.linspace(base.support_inner, base.support_outer, 101)
        gap = np.max(np.abs(np.asarray(scaled.cdf(probe * scale)) - np.asarray(base.cdf(probe))))
        assert gap <= 1e-12


# f = 1 on [1/2, 3/2]: E[H^2] = 13/12 and E[H^-2] = 4/3; f = 2t on [0, 1]
# vanishes at 0, yet int t^-2 f diverges there, and E[H^2] = 1/2
UNIFORM = ScalarMeasure((), tuple(zip(np.linspace(0.5, 1.5, 11).tolist(), [1.0] * 11)))
RAMP = ScalarMeasure((), ((0.0, 0.0), (1.0, 2.0)))


def _quad_quantile_radius(measure, t):
    """S_{mu^2}(t - 1)^(-1/2) with psi of mu^2 by quad and chi by brentq."""
    xs, fs = np.array(measure.density).T
    w = t - 1.0

    def psi_sq(z):
        integrand = lambda s: np.interp(s, xs, fs) * s * s * z / (1.0 - s * s * z)
        return sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0] for a, b in zip(xs, xs[1:]))

    lo = -1.0
    while psi_sq(lo) > w:
        lo *= 2.0
    z = brentq(lambda z: psi_sq(z) - w, lo, lo / 2.0 if lo < -1.0 else 0.0, xtol=1e-300, rtol=1e-15)
    return (z * (1.0 + w) / w) ** -0.5


class TestDensityAnnulus:
    def test_uniform_density_radii(self):
        m = brown_rdiagonal(UNIFORM)
        assert m.support_outer == pytest.approx(math.sqrt(13.0 / 12.0), abs=1e-12)
        assert m.support_inner == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_density_vanishing_at_zero_reaches_the_origin(self):
        m = brown_rdiagonal(RAMP)
        assert m.support_inner == 0.0
        assert m.support_outer == pytest.approx(SQRT_HALF, abs=1e-12)
        assert m.cumulative[0] == 0.0 and m.cumulative[-1] == 1.0

    @pytest.mark.parametrize("measure", [UNIFORM, RAMP], ids=["uniform", "ramp"])
    def test_cdf_against_quad_quantiles(self, measure):
        m = brown_rdiagonal(measure)
        for t in np.linspace(0.1, 0.9, 8):
            assert m.cdf(_quad_quantile_radius(measure, t)) == pytest.approx(t, abs=1e-8)


class TestDiracHandling:
    def test_dirac_rejected_by_default(self):
        # every point mass, at 0 too, is refused
        for loc in (2.0, 0.0):
            with pytest.raises(DiracInputError):
                brown_rdiagonal(ScalarMeasure(atoms=((loc, 1.0),)))

    def test_all_but_a_trace_of_mass_at_zero_refused(self):
        # 1e-300 of the mass off 0 leaves the radius map no grid to run on;
        # with 1e-13 off 0 the atom's mass still rounds to 1
        for trace in (1e-300, 1e-13):
            with pytest.raises(DomainError, match="too little mass"):
                brown_rdiagonal(ScalarMeasure(((0.0, 1.0), (1.0, trace))))


# F'(r) for each catalog ball mass F, written out apart from CATALOG; the
# planar density is F'(r) / (2 pi r)
BALL_SLOPES = {
    OperatorTag.W1F12: lambda r: r / (1.0 - r**2) ** 2,
    OperatorTag.E12_plus_F12: lambda r: 2.0 * r / (1.0 - r**2) ** 2,
    OperatorTag.E12_plus_F12_squared: lambda r: 1.0 / (1.0 - r) ** 2,
    OperatorTag.W1_plus_F12_squared: lambda r: 2.0 * r / (1.0 - r**2) ** 2,
    OperatorTag.W1_plus_F12: lambda r: 2.0 * r / (1.0 - r**2) ** 2,
}


class TestCatalog:
    def test_w1f12_values(self):
        cat = catalog_brown(OperatorTag.W1F12)
        assert cat.cdf(0.5) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert cat.cdf(0.0) == 0.5
        assert cat.cdf(SQRT_HALF) == 1.0
        assert cat.coordinate(0j) == 0.0

    def test_e12_plus_f12_values(self):
        cat = catalog_brown(OperatorTag.E12_plus_F12)
        assert cat.center_atom_mass == 0.0
        assert cat.cdf(SQRT_HALF) == 1.0
        assert cat.cdf(0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_squared_nilpotent_sum_values(self):
        cat = catalog_brown(OperatorTag.E12_plus_F12_squared)
        assert cat.support_outer == 0.5
        assert cat.cdf(0.25) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert cat.cdf(0.5) == 1.0

    def test_shifted_square_is_centered_at_one(self):
        cat = catalog_brown(OperatorTag.W1_plus_F12_squared)
        assert cat.coordinate(1.0 + 0j) == 0.0
        assert cat.cdf(0.5) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_tags_accept_strings(self):
        # catalog_brown is a lookup: the entry itself, by string or enum
        assert catalog_brown("W1F12") is CATALOG[OperatorTag.W1F12]
        assert catalog_brown(OperatorTag.W1F12) is CATALOG[OperatorTag.W1F12]
        with pytest.raises(ValueError):
            catalog_brown("NotATag")

    def test_edge_invariants_all_tags(self):
        for tag in OperatorTag:
            cat = catalog_brown(tag)
            rs = np.linspace(0.0, cat.support_outer, 2049)
            assert np.all(np.diff(np.asarray(cat.cdf(rs))) >= -1e-15)
            assert cat.cdf(0.0) == pytest.approx(cat.center_atom_mass, abs=1e-12)
            assert cat.cdf(cat.support_outer) == pytest.approx(1.0, abs=1e-12)

    def test_squared_law_matches_squared_radii(self):
        # squaring the nilpotent sum's radii lands on the squared law's CDF
        base = catalog_brown(OperatorTag.E12_plus_F12)
        squared = catalog_brown(OperatorTag.E12_plus_F12_squared)
        rs = np.linspace(0.0, base.support_outer, 2049)
        gap = np.max(np.abs(np.asarray(squared.cdf(rs**2)) - np.asarray(base.cdf(rs))))
        assert gap <= 1e-10

    @pytest.mark.parametrize("tag", list(OperatorTag), ids=lambda t: t.value)
    def test_planar_density_recovers_total_mass(self, tag):
        # the density integrated over each disc gives the ball mass off the
        # center atom, and over the support all of it
        cat = catalog_brown(tag)
        rs = np.linspace(0.0, cat.support_outer, 40001)
        mass = cumulative_trapezoid(BALL_SLOPES[tag](rs), rs, initial=0.0)
        assert np.max(np.abs(mass - (cat.cdf(rs) - cat.center_atom_mass))) <= 1e-8
        assert mass[-1] == pytest.approx(1.0 - cat.center_atom_mass, abs=1e-8)

    def test_conditional_cdf_strips_atom(self):
        cat = catalog_brown(OperatorTag.W1F12)
        cond = conditional_cdf(cat)
        assert cond(0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert cond(SQRT_HALF) == pytest.approx(1.0, abs=1e-12)


def support_membership(tag, z):
    """Whether z lies in the closed support of the catalogued Brown measure."""
    return pullback_radii(tag, np.array([z], dtype=complex))[0] <= catalog_brown(tag).support_outer


class TestSupportMembership:
    def test_shifted_sum_uses_squared_coordinate(self):
        assert support_membership(OperatorTag.W1_plus_F12, 1.0)
        assert support_membership(OperatorTag.W1_plus_F12, -1.0)
        assert not support_membership(OperatorTag.W1_plus_F12, 0.2)

    def test_disc_tags(self):
        assert not support_membership(OperatorTag.E12_plus_F12, 0.8)
        assert support_membership(OperatorTag.E12_plus_F12, 0.7)
        assert support_membership(OperatorTag.E12_plus_F12_squared, 0.5)
        assert not support_membership(OperatorTag.E12_plus_F12_squared, 0.51)
        assert support_membership(OperatorTag.W1_plus_F12_squared, 1.7)
        assert not support_membership(OperatorTag.W1_plus_F12_squared, 0.2)

    def test_pullback_radii(self):
        vals = np.array([1.0 + 0j, 0.2 + 0j, 1j])
        out = pullback_radii(OperatorTag.W1_plus_F12, vals)
        assert out == pytest.approx([0.0, 0.96, 2.0])
        out = pullback_radii(OperatorTag.W1_plus_F12_squared, np.array([1.5 + 0j]))
        assert out == pytest.approx([0.5])


class TestSerialization:
    def test_json_round_trip(self):
        # the text holds every radius and mass exactly
        m = brown_rdiagonal(TWO_ATOM)
        payload = json.loads(m.to_json())
        radii, masses = np.array(payload["cdf"]).T
        assert np.array_equal(radii, m.radii)
        assert np.array_equal(masses, m.cumulative)
        assert payload["support"] == [m.support_inner, m.support_outer]
        assert payload["atoms"] == []

    def test_json_payload_shape(self):
        payload = json.loads(brown_rdiagonal(BERNOULLI).to_json())
        assert sorted(payload) == ["atoms", "cdf", "center", "support"]
        assert payload["center"] == [0.0, 0.0]
        assert payload["atoms"] == [[0.0, 0.0, 0.5]]
        assert payload["support"] == [0.0, pytest.approx(SQRT_HALF)]

    def test_csv_rows_hit_dyadic_grid(self):
        rows = dict(brown_rdiagonal(BERNOULLI).cdf_csv_rows())
        assert rows[0.5] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert max(rows) == pytest.approx(SQRT_HALF)
        assert rows[max(rows)] == 1.0

    @pytest.mark.parametrize("exponent", [-500, -10, 10, 500])
    def test_csv_rows_scale_with_the_measure(self, exponent):
        # the grid step follows the outer radius's power of two and psi is
        # read on the measure scaled back by a power of two, so scaling H by
        # 2^e scales every row's radius by 2^e and keeps its mass
        scale = 2.0**exponent
        base = brown_rdiagonal(TWO_ATOM).cdf_csv_rows()
        scaled = brown_rdiagonal(
            ScalarMeasure(((0.5 * scale, 0.5), (1.5 * scale, 0.5)))
        ).cdf_csv_rows()
        # outer radius sqrt(5/4) lies in [1, 2), so the step is 2/1024
        assert base[2][0] - base[1][0] == 2.0 / 1024
        assert scaled == [(r * scale, f) for r, f in base]

    def test_validation_rejects_bad_cdf(self):
        with pytest.raises(MeasureFormatError):
            RadialPlanarMeasure(
                center_atom_mass=0.0,
                radii=np.array([0.0, 1.0]),
                cumulative=np.array([0.0, 0.9]),
                support_inner=0.0,
                support_outer=1.0,
            )
        with pytest.raises(MeasureFormatError):
            RadialPlanarMeasure(
                center_atom_mass=0.0,
                radii=np.array([0.0, 1.0]),
                cumulative=np.array([0.5, 1.0]),
                support_inner=0.0,
                support_outer=1.0,
            )
