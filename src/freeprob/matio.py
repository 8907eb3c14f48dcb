"""Complex matrix files.

One encoding, JSON, in files ending in ``.json``:
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with ``data`` holding
r*c entries in row-major order.  Any other extension is refused.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MeasureFormatError

__all__ = ["matrix_to_json", "matrix_from_json", "save_matrix", "load_matrix", "read_text"]


def _finite(parts: np.ndarray) -> np.ndarray:
    """parts, refused unless every entry is finite: JSON has no NaN or inf."""
    if not np.all(np.isfinite(parts)):
        raise MeasureFormatError("matrix entries must be finite")
    return parts


def _complex(parts: list) -> np.ndarray:
    """Complex array from reals in alternating re, im order, each finite."""
    return _finite(np.array(parts, dtype=float)).view(complex)


def matrix_to_json(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise MeasureFormatError(f"expected a 2-d array, got ndim={matrix.ndim}")
    parts = _finite(np.stack((matrix.real, matrix.imag), axis=-1))
    return {
        "rows": parts.shape[0],
        "cols": parts.shape[1],
        "data": parts.reshape(-1, 2).tolist(),
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    try:
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    except (KeyError, TypeError) as exc:
        raise MeasureFormatError(f"malformed matrix JSON: {exc}") from exc
    # bool is a subclass of int, and a JSON true is no dimension
    if type(rows) is not int or type(cols) is not int:
        raise MeasureFormatError(f"matrix dimensions must be integers, got {rows!r} x {cols!r}")
    if not isinstance(data, list):
        raise MeasureFormatError(f"matrix data must be a list, got {type(data).__name__}")
    if rows <= 0 or cols <= 0:
        raise MeasureFormatError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise MeasureFormatError(
            f"expected {rows * cols} entries, got {len(data)}"
        )
    try:
        flat = [float(v) for re, im in data for v in (re, im)]
    except (TypeError, ValueError) as exc:
        raise MeasureFormatError(f"malformed matrix entry: {exc}") from exc
    return _complex(flat).reshape(rows, cols)


def save_matrix(path: str | Path, matrix: np.ndarray) -> None:
    path = Path(path)
    if path.suffix != ".json":
        raise MeasureFormatError(f"unsupported matrix extension {path.suffix!r}")
    path.write_text(json.dumps(matrix_to_json(matrix)))


def read_text(path: str | Path) -> str:
    """An input file's UTF-8 text; a file that cannot be read or decoded is a
    format error, so it exits 3 like any other malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MeasureFormatError(f"cannot read {path}: {exc}") from exc


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix != ".json":
        raise MeasureFormatError(f"unsupported matrix extension {path.suffix!r}")
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise MeasureFormatError(f"{path}: invalid JSON: {exc}") from exc
    return matrix_from_json(payload)
