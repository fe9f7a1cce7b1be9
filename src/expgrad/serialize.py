"""JSON file formats shared by all modules.

Complex matrices are row-major arrays of rows, each entry a 2-array
[re, im] of doubles. Measurement ensembles are {"dim": d, "operators":
[matrix, ...]}; vector objectives are {"dim": d, "rows": [[...], ...]}.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInput
from .linalg import HermitianOperator
from .objectives import MeasurementEnsemble

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "save_ensemble",
    "load_ensemble",
    "load_rows",
]


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=np.complex128)]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed matrix payload: {exc}") from None
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise InvalidInput(f"expected a d x d x 2 matrix payload, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_ensemble(ens: MeasurementEnsemble, path) -> None:
    payload = {"dim": ens.dim, "operators": [matrix_to_json(op.mat) for op in ens.operators]}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_ensemble(path) -> MeasurementEnsemble:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "dim" not in payload or "operators" not in payload:
        raise InvalidInput("ensemble file must contain 'dim' and 'operators'")
    ops = [HermitianOperator(matrix_from_json(m)) for m in payload["operators"]]
    ens = MeasurementEnsemble(ops)
    if ens.dim != payload["dim"]:
        raise InvalidInput("ensemble dimension does not match its operators")
    return ens


def load_rows(path) -> np.ndarray:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "dim" not in payload or "rows" not in payload:
        raise InvalidInput("vector objective file must contain 'dim' and 'rows'")
    rows = np.asarray(payload["rows"], dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != payload["dim"]:
        raise InvalidInput("row shapes do not match the declared dimension")
    return rows
