"""Small shared helpers: tolerances, real-vector coercion and canonical
JSON."""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, DimensionError, RangeError

#: Tolerance for membership in a unit sphere: ``|norm(x) - 1| <= TOL_SPHERE``.
TOL_SPHERE = 1e-9


def as_rows(rows, dim: int, dtype=np.float64) -> np.ndarray:
    """``rows`` as an ``(n, dim)`` array of ``dtype``, for reading only: a
    conforming ``np.ndarray`` as it is, anything else converted once in its
    memory order (row sums depend on it).  A nonzero imaginary part under a
    real ``dtype`` raises :class:`RangeError`, another shape
    :class:`DimensionError`."""
    if (type(rows) is np.ndarray and rows.dtype == dtype and rows.ndim == 2
            and rows.shape[1] == dim):
        return rows
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionError(f"expected an (n, {dim}) array, got shape {arr.shape}")
    if np.iscomplexobj(arr) and np.dtype(dtype).kind != "c":
        if np.any(arr.imag != 0.0):
            raise RangeError("complex coordinates are invalid in a real space")
        arr = arr.real
    return arr.astype(dtype, copy=False)


def as_vector(x, dim: int, dtype=np.float64) -> np.ndarray:
    """``x`` as a length-``dim`` vector of ``dtype``, by the rules of
    :func:`as_rows`; 0-d and ``(1, dim)`` input is flattened."""
    if type(x) is np.ndarray and x.dtype == dtype and x.shape == (dim,):
        return x
    arr = np.asarray(x).reshape(-1)
    if arr.size != dim:
        raise DimensionError(f"expected a vector of length {dim}, got {arr.size}")
    return as_rows(arr[None], dim, dtype)[0]


def json_int(value, what: str) -> int:
    """``value`` read as a JSON integer (or a numpy integer).

    Anything else is a :class:`ConfigError`: ``int()`` would read 2.5 as 2,
    ``true`` as 1 and ``"3"`` as 3, another object than the one given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _canonical_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def canonical_json(data) -> str:
    """Serialize ``data`` to a canonical JSON string.

    Keys are sorted, separators are fixed, and floats keep full ``repr``
    precision, so equal inputs always produce identical bytes.  Non-finite
    floats, which strict JSON cannot hold, are written as the strings
    ``"NaN"``, ``"Infinity"`` and ``"-Infinity"``; finite payloads take the
    strict path alone.
    """
    try:
        return json.dumps(data, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=_canonical_default)
    except ValueError:
        # the lenient dump writes NaN/Infinity/-Infinity tokens, which
        # parse back as the strings of the same names
        tagged = json.loads(json.dumps(data, default=_canonical_default),
                            parse_constant=str)
        return json.dumps(tagged, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
