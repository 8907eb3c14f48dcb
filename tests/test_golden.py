"""Pinned bytes of the radial recipe's files, of psi, of the catalog laws
and of the field's CSV formatting.

The rdiag outputs come from points of the radius map read off psi on a
fixed grid and a monotone cubic through them, psi is a closed form on each
atom and linear density piece, and the catalog laws are closed-form
rational expressions, so a refactor that keeps the arithmetic keeps these
digests.  On atoms psi is rational; on a density it is exact on each linear
piece through numpy's log1p and arctan, whose SIMD builds may differ in the
last bit between CPU dispatch targets, so the "with_density" and "density"
digests also pin those builds.  The field CSV pins format a hand-built
BrownField, so they test the text and not the kernel.  Outputs that pass
through a dense eigensolve or factorization (simulate, field values) depend
on the LAPACK build and are compared between commits by hand instead of
being pinned here.
"""

import json
import math
from hashlib import sha256

import numpy as np
import pytest

from freeprob import cli
from freeprob.brownfield import BrownField, GridSpec, field_csv_text, mass_csv_text
from freeprob.measures import ScalarMeasure, psi_transform
from freeprob.rdiagonal import OperatorTag, catalog_brown

RDIAG_DIGESTS = {
    "two_point": {
        "two_point_radial.json": "e209fc20140da6c0c506a1b99b6308611044a34c239dca604f7beae6a58ae3d3",
        "two_point_cdf.csv": "4fecb080a7a6d8dc467853d06c7da1045ee6532664792dbb7ff96686ca3272c6",
    },
    "with_density": {
        "with_density_radial.json": "85313775b07b68be11719fe2a53fe1a77fc344d5b67b94cb74f0ed164ca1fb4f",
        "with_density_cdf.csv": "14aa9d617b91b786b1050e45afefb434e38c7915571cdbba611137ec2db6674c",
    },
}

# per tag: sha256 of cdf(GRID)
CATALOG_DIGESTS = {
    "W1F12": "81d73250a26d4712980f77e15f41105233515b2c0b6b56795e424274579dbcc0",
    "E12_plus_F12": "ea8df6891b0336f19165e0c50e8f8b1c3d3a4825f91d776cc5e07530edfd5933",
    "E12_plus_F12_squared": "c057fb662c244c47ca5b0315978c0ac7f8f0d89b0013e21566138cc666655ad0",
    "W1_plus_F12_squared": "ea8df6891b0336f19165e0c50e8f8b1c3d3a4825f91d776cc5e07530edfd5933",
    "W1_plus_F12": "ea8df6891b0336f19165e0c50e8f8b1c3d3a4825f91d776cc5e07530edfd5933",
}

SQRT_HALF = 1.0 / math.sqrt(2.0)
# r < 0, r = 0, both outer radii and their left neighbours, and r > outer
GRID = np.unique(
    np.concatenate(
        (
            np.linspace(-0.25, 1.0, 41),
            [SQRT_HALF, np.nextafter(SQRT_HALF, 0.0), np.nextafter(0.5, 0.0)],
        )
    )
)

MEASURES = {
    "two_point": ScalarMeasure(((0.0, 0.5), (1.0, 0.5))),
    "with_density": ScalarMeasure(
        ((0.0, 0.25),), ((0.5, 0.75), (1.0, 0.75), (1.5, 0.75))
    ),
}


# sha256 of psi_transform at 65 arguments z < 0, geometric from -1e-8 to
# -1e8: both sides of the series cut and the closed forms.  Criterion 1
# reads S off these bits of psi on its atoms.
PSI_DIGESTS = {
    "atomic": "e1c8e7f7c35252ca478e0fbf224d4405f135001f8ab157e6edce2432e51d5339",
    "density": "2d5727c72db5758132f774a16a79996d7e94e8ca9f4d34e8882a9a84a5b35131",
}

PSI_MEASURES = {
    "atomic": ScalarMeasure(((0.0, 0.25), (1.0, 0.25), (2.0, 0.5))),
    "density": ScalarMeasure(
        ((0.25, 0.5),), tuple(zip(np.linspace(0.5, 1.5, 11).tolist(), [0.5] * 11))
    ),
}
PSI_ARGUMENTS = -np.geomspace(1e-8, 1e8, 65)


def _digest(data: bytes) -> str:
    return sha256(data).hexdigest()


@pytest.mark.parametrize("stem", sorted(RDIAG_DIGESTS))
def test_rdiag_output_digests(stem, tmp_path):
    measure_file = tmp_path / f"{stem}.json"
    measure_file.write_text(MEASURES[stem].to_json())
    out = tmp_path / "out"
    assert cli.main(["rdiag", str(measure_file), "--out-dir", str(out)]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["outputs"] == RDIAG_DIGESTS[stem]


@pytest.mark.parametrize("name", sorted(PSI_DIGESTS))
def test_psi_digests(name):
    psi = np.array([psi_transform(PSI_MEASURES[name], z) for z in PSI_ARGUMENTS])
    assert _digest(psi.tobytes()) == PSI_DIGESTS[name]


@pytest.mark.parametrize("tag", [t.value for t in OperatorTag])
def test_catalog_law_digests(tag):
    law = catalog_brown(tag)
    cdf = np.asarray(law.cdf(GRID), dtype=float)
    assert _digest(cdf.tobytes()) == CATALOG_DIGESTS[tag]


def test_catalog_edges():
    # the grid reaches each edge the digests are meant to cover
    assert GRID.min() < 0.0 and 0.0 in GRID and GRID.max() > SQRT_HALF
    for tag in OperatorTag:
        law = catalog_brown(tag)
        assert law.cdf(-0.25) == 0.0
        assert law.cdf(1.0) == 1.0
        assert law.cdf(0.0) == law.center_atom_mass


# sha256 of field_csv_text and of mass_csv_text
CSV_DIGESTS = {
    "field": "27f159813f082a4aa8792192fb66c671f514658bf0f94508498ba0a721db8f0d",
    "mass": "192f501597893eab073689f7879336dac45b32b3dbfeab15b3f68aeb56e543d7",
}


def _hand_built_field() -> BrownField:
    # quotients and signed zeros, a -inf corner and a subnormal: every value
    # is exactly rounded, so the bytes do not depend on the platform's libm
    grid = GridSpec(x_min=-0.75, x_max=1.25, y_min=-0.5, y_max=0.5, nx=5, ny=4)
    values = np.arange(20.0).reshape(5, 4) / 7.0 - 1.3
    values[0, 0] = -math.inf
    values[4, 3] = -0.0
    values[2, 1] = 5e-324
    mass = np.arange(6.0).reshape(3, 2) / 11.0 - 0.2
    return BrownField(grid=grid, values=values, laplacian_mass=mass, noise_floor=0.125)


def test_field_csv_digests():
    fld = _hand_built_field()
    got = {
        "field": _digest(field_csv_text(fld).encode()),
        "mass": _digest(mass_csv_text(fld).encode()),
    }
    assert got == CSV_DIGESTS
