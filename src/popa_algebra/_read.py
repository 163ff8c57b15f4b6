"""Readers for parsed JSON values, the one rule for a valid input field: each returns
the Python value or raises ``ConstraintViolated`` naming the field's path, such as
``'solution' 'rho'[0]``.  A number is a JSON number, never a string, bool or null;
a real is finite, an integer a literal."""

import contextlib
import reprlib
import sys
from itertools import chain

from .errors import ConstraintViolated

_NUMBER = {int, float}   # type(True) is bool, so bools are not numbers
_MAX = sys.float_info.max


def fail(where: str, what: str, value):
    subject = f"field {where}" if where else "the input"
    raise ConstraintViolated(f"{subject} must be {what}, got {reprlib.repr(value)}")


def obj(value, where: str) -> dict:
    return value if isinstance(value, dict) else fail(where, "a JSON object", value)


def get(data, key: str, where: str, read=None, *args, default=...):
    """Member ``key`` of object ``data`` through ``read(value, path, *args)``, else ``default``."""
    path = f"{where} '{key}'".lstrip()
    if key in obj(data, where):
        return data[key] if read is None else read(data[key], path, *args)
    if default is ...:
        raise ConstraintViolated(f"missing field {path}")
    return default


def array(value, where: str) -> list:
    return value if isinstance(value, list) else fail(where, "a list", value)


def choice(value, where: str, options):
    return (value if isinstance(value, str) and value in options
            else fail(where, "one of " + ", ".join(options), value))


def real(value, where: str, lo=-_MAX) -> float:
    if type(value) in _NUMBER and lo <= value <= _MAX:   # exact for any int, False for NaN
        return float(value)
    fail(where, "a finite number" + (f" at least {lo}" if lo > -_MAX else ""), value)


def integer(value, where: str, lo=None) -> int:
    if type(value) is int and (lo is None or value >= lo):
        return value
    fail(where, "an integer literal" + ("" if lo is None else f" at least {lo}"), value)


def vector(value, where: str, flat=None, entry=real) -> "np.ndarray":
    """A list of finite numbers as a float array: one type scan, no Python call per number."""
    import numpy as np   # here, so that readers of scalars load no numpy
    values = array(value, where)
    if set(map(type, values if flat is None else flat)) <= _NUMBER:
        with contextlib.suppress(OverflowError):   # an integer literal beyond the float range
            a = np.array(values, dtype=float)
            if np.isfinite(a).all():
                return a
    for i, v in enumerate(values):   # name the bad entry
        entry(v, f"{where}[{i}]")


def matrix(value, where: str) -> "np.ndarray":
    """Rows of one length ([] reads as shape (0,)); squareness is the caller's rule."""
    rows = [array(row, f"{where}[{i}]") for i, row in enumerate(array(value, where))]
    if len(set(map(len, rows))) > 1:
        fail(where, "a list of rows of one length", value)
    return vector(rows, where, chain.from_iterable(rows), vector)
