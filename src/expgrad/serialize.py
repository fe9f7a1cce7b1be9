"""JSON file formats shared by all modules.

Complex matrices are row-major arrays of rows, each entry a 2-array
[re, im] of doubles. Measurement ensembles are {"dim": d, "operators":
[matrix, ...]}; vector objectives are {"dim": d, "rows": [[...], ...]}.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInput
from .linalg import _array
from .objectives import MeasurementEnsemble


def matrix_from_json(data) -> np.ndarray:
    arr = _array(data, np.float64, what="matrix payload")
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise InvalidInput(f"expected a d x d x 2 matrix payload, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_ensemble(ens: MeasurementEnsemble, path) -> None:
    """Write the bytes that json.dump gives for {"dim": d, "operators":
    [matrix, ...]}, encoding one operator at a time with the C encoder so
    that the whole text is never held at once. An operator is listed as the
    (d, d, 2) [re, im] pairs of its float64 view."""
    d = ens.dim
    with open(path, "w") as fh:
        fh.write(f'{{"dim": {d}, "operators": [')
        for i, op in enumerate(ens.operators):
            if i:
                fh.write(", ")
            fh.write(json.dumps(op.view(np.float64).reshape(d, d, 2).tolist()))
        fh.write("]}\n")


def _load(path, key: str, what: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or type(payload.get("dim")) is not int or key not in payload:
        raise InvalidInput(f"{what} file must contain an integer 'dim' and '{key}'")
    return payload


def load_ensemble(path) -> MeasurementEnsemble:
    payload = _load(path, "operators", "ensemble")
    if not isinstance(payload["operators"], list):
        raise InvalidInput("'operators' must be a list of matrices")
    ens = MeasurementEnsemble([matrix_from_json(m) for m in payload["operators"]])
    if ens.dim != payload["dim"]:
        raise InvalidInput("ensemble dimension does not match its operators")
    return ens


def load_rows(path) -> np.ndarray:
    payload = _load(path, "rows", "vector objective")
    rows = _array(payload["rows"], np.float64, what="rows")
    if rows.ndim != 2 or rows.shape[1] != payload["dim"]:
        raise InvalidInput("row shapes do not match the declared dimension")
    return rows
