"""Matrix file round trips and format validation."""

import json

import numpy as np
import pytest

from freeprob.errors import MeasureFormatError
from freeprob.matio import (
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
)

SAMPLE = np.array([[1 + 2j, 3.5], [-1j, 0.25 - 0.75j]])


def test_json_round_trip():
    back = matrix_from_json(matrix_to_json(SAMPLE))
    assert np.array_equal(back, SAMPLE)


def test_json_payload_shape():
    payload = matrix_to_json(SAMPLE)
    assert payload["rows"] == 2 and payload["cols"] == 2
    assert payload["data"][0] == [1.0, 2.0]
    assert len(payload["data"]) == 4


def test_json_rejects_missing_keys():
    with pytest.raises(MeasureFormatError):
        matrix_from_json({"rows": 2, "data": []})


def test_json_rejects_wrong_count():
    with pytest.raises(MeasureFormatError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


def test_json_rejects_bad_entries():
    for payload in (
        {"rows": 1, "cols": 1, "data": [["x", 0.0]]},
        {"rows": 1, "cols": 1, "data": 5},
        {"rows": 1, "cols": 1, "data": None},
        # a 1.5 x 2 file is not a 1 x 2 matrix
        {"rows": 1.5, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]},
        {"rows": 1, "cols": "2", "data": [[1.0, 0.0], [2.0, 0.0]]},
        {"rows": True, "cols": 1, "data": [[1.0, 0.0]]},
    ):
        with pytest.raises(MeasureFormatError):
            matrix_from_json(payload)


def test_json_rejects_nonpositive_dims():
    with pytest.raises(MeasureFormatError):
        matrix_from_json({"rows": 0, "cols": 2, "data": []})


def test_save_load_json(tmp_path):
    path = tmp_path / "m.json"
    save_matrix(path, SAMPLE)
    json.loads(path.read_text())
    assert np.array_equal(load_matrix(path), SAMPLE)


def test_unknown_extension(tmp_path):
    with pytest.raises(MeasureFormatError):
        save_matrix(tmp_path / "m.txt", SAMPLE)
    with pytest.raises(MeasureFormatError):
        load_matrix(tmp_path / "m.txt")


def test_save_refuses_non_finite_entries(tmp_path):
    # JSON has no NaN or Infinity: such a file would not load back
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        matrix = SAMPLE.copy()
        matrix[1, 0] = bad
        path = tmp_path / "bad.json"
        with pytest.raises(MeasureFormatError, match="finite"):
            save_matrix(path, matrix)
        assert not path.exists()
    # finite entries, subnormals and signed zeros included, come back bit for bit
    finite = np.array([[0.1 + 1j / 3, 5e-324 - 0.0j], [-0.0 + 1e308j, np.pi]])
    path = tmp_path / "good.json"
    save_matrix(path, finite)
    assert load_matrix(path).tobytes() == finite.tobytes()
