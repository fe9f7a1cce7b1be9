"""JSON file formats shared by all modules.

Complex matrices are row-major arrays of rows, each entry a 2-array
[re, im] of doubles. Measurement ensembles are {"dim": d, "operators":
[matrix, ...]}; vector objectives are {"dim": d, "rows": [[...], ...]}.

Memory: an ensemble is written and read one operator at a time, so that
the nested Python lists of one operator (about 120 B per complex entry,
against 16 B in the stack) exist at once, never the whole file's. A load
peaks at about the file's text (its bytes too while it is read) plus a few
copies of the (m, d, d) stack. Rows are parsed whole and converted once.
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


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match


def _past(text: str, at: int, token: str) -> int:
    """The index past `token` at `at` and the whitespace after it."""
    if not text.startswith(token, at):
        raise json.JSONDecodeError(f"Expecting {token!r}", text, at)
    return _SPACE(text, at + 1).end()


def _entries(text: str, at: int, convert) -> tuple[list, Exception | None, int]:
    """The JSON list whose '[' is at `at`, each entry passed to `convert` as
    it is parsed: the converted entries, the first exception of `convert`
    (after which entries are parsed only), and the index past the ']'."""
    out, error = [], None
    at = _past(text, at, "[")
    more = not text.startswith("]", at)
    while more:
        entry, at = _DECODER.raw_decode(text, at)
        if error is None:
            try:
                out.append(convert(entry))
            except Exception as exc:  # raised once the whole text has parsed
                error = exc
        at = _SPACE(text, at).end()
        more = text.startswith(",", at)
        if more:
            at = _past(text, at, ",")
    return out, error, _past(text, at, "]")


def _parse(text: str, key: str, convert) -> tuple[object, Exception | None]:
    """json.loads(text), but a top-level object's list value of `key` is
    converted entry by entry (_entries). Returns the payload and the
    exception that converting the last `key` value held back. Where the
    text is not JSON, raises a JSONDecodeError whose message may not be
    json.loads's."""
    at = _SPACE(text).end()
    if convert is None or not text.startswith("{", at):
        return json.loads(text), None
    payload, error = {}, None
    at = _past(text, at, "{")
    more = not text.startswith("}", at)
    while more:
        if not text.startswith('"', at):
            raise json.JSONDecodeError("Expecting property name", text, at)
        name, at = json.decoder.scanstring(text, at + 1)
        at = _past(text, _SPACE(text, at).end(), ":")
        if name == key and text.startswith("[", at):
            payload[name], error, at = _entries(text, at, convert)
        else:
            payload[name], at = _DECODER.raw_decode(text, at)
            if name == key:  # the last value wins, with its own conversion error
                error = None
        at = _SPACE(text, at).end()
        more = text.startswith(",", at)
        if more:
            at = _past(text, at, ",")
    if _past(text, at, "}") != len(text):
        raise json.JSONDecodeError("Extra data", text, at)
    return payload, error


def _load(path, key: str, what: str, convert=None) -> dict:
    """The JSON object of a file, with an integer 'dim' and `key`; with
    `convert`, a list value of `key` comes converted entry by entry, so
    that the file's nested lists are never all held at once. Malformed JSON
    raises json.loads's own JSONDecodeError; a conversion error is raised
    after the checks on the whole payload, as converting the parsed payload
    would."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload, error = _parse(text, key, convert)
    except json.JSONDecodeError:
        json.loads(text)  # its message and position, as json.load gives them
        raise
    if not isinstance(payload, dict) or type(payload.get("dim")) is not int or key not in payload:
        raise InvalidInput(f"{what} file must contain an integer 'dim' and '{key}'")
    if error is not None:
        raise error
    return payload


def load_ensemble(path) -> MeasurementEnsemble:
    payload = _load(path, "operators", "ensemble", matrix_from_json)
    if not isinstance(payload["operators"], list):
        raise InvalidInput("'operators' must be a list of matrices")
    ens = MeasurementEnsemble(payload["operators"])
    if ens.dim != payload["dim"]:
        raise InvalidInput("ensemble dimension does not match its operators")
    return ens


def load_rows(path) -> np.ndarray:
    payload = _load(path, "rows", "vector objective")
    rows = _array(payload["rows"], np.float64, what="rows")
    if rows.ndim != 2 or rows.shape[1] != payload["dim"]:
        raise InvalidInput("row shapes do not match the declared dimension")
    return rows
