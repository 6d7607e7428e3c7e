"""Small shared helpers: tolerances and canonical JSON."""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, DegenerateInput

#: Tolerance for membership in a unit sphere: ``|norm(x) - 1| <= TOL_SPHERE``.
TOL_SPHERE = 1e-9


def as_pair(x) -> tuple[float, float]:
    """Coerce ``x`` to a real pair ``(a, b)``."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 2:
        raise DegenerateInput(f"expected a length-2 real pair, got shape {np.shape(x)}")
    return float(arr[0]), float(arr[1])


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
