"""Readers of JSON input fields, the one place where a document is checked
before the library reads it.

Each reader takes a container (a JSON object and a key, or a JSON list and
an index), the container's path ("" for the document) and, for an optional
field, the ``default`` returned when the key is absent.  A container or
value of another JSON type, a missing key, a non-integral integer, a
non-finite number or a zero denominator is a ValueError naming the path of
the field, as in ``bars[2].death``.  Booleans are not numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction

_REQUIRED = object()


def _name(path: str, key) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key


def _rational(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            return None
    if isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and math.isfinite(v):
        return Fraction(v)
    return None


def _reader(convert, what: str):
    """The reader of the values that ``convert`` maps to a value other than None."""
    def read(data, key, path: str = "", default=_REQUIRED):
        kind = list if isinstance(key, int) else dict
        if not isinstance(data, kind):
            raise ValueError(f"{path or 'the document'} must be a JSON "
                             f"{'list' if kind is list else 'object'}")
        if kind is dict and key not in data:
            if default is _REQUIRED:
                raise ValueError(f"{_name(path, key)} is missing")
            return default
        value = convert(data[key])
        if value is None:
            raise ValueError(f"{_name(path, key)} must be {what}")
        return value
    return read


def _of(kind, what: str):
    return _reader(lambda v: v if isinstance(v, kind) else None, what)


obj, array = _of(dict, "a JSON object"), _of(list, "a JSON list")
string, boolean = _of(str, "a string"), _of(bool, "true or false")
rational = _reader(_rational, "a rational")
integer = _reader(lambda v: None if (q := _rational(v)) is None or q != int(q) else int(q),
                  "an integer")
rational_or_inf = _reader(lambda v: math.inf if v == "inf" else _rational(v),
                          'a rational or "inf"')


def records(data, key, path: str = "", default=_REQUIRED) -> list[tuple[str, dict]]:
    """(path, object) for each item of the list of JSON objects data[key]."""
    items, name = array(data, key, path, default), _name(path, key)
    return [(_name(name, k), obj(items, k, name)) for k in range(len(items))]


def strings(data, key, path: str = "", default=_REQUIRED) -> list[str]:
    items, name = array(data, key, path, default), _name(path, key)
    return [string(items, k, name) for k in range(len(items))]
