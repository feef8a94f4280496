"""The boundary for input JSON documents: ``load`` decodes every one, and
the field readers accept a field only as the JSON type it must have (a
JSON integer is read as a float in a number field). Each error names the
field's JSON path, or the field within an object whose path the caller
adds."""

from __future__ import annotations

import json
import numbers


class DocumentError(ValueError):
    """Invalid input document; ``where`` holds the JSON path of the problem."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def load(text: str):
    """The document in ``text``. Text that is not JSON, that holds an
    integer past the interpreter's digit limit, or that nests too deeply to
    decode, is a DocumentError at ``$``."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or the integer digit limit
        raise DocumentError("$", f"not valid JSON: {e}") from e
    except RecursionError:
        raise DocumentError("$", "not valid JSON: nested too deeply") from None


def integer(name: str, value) -> int:
    """``value`` as an int when it is an integer; a bool, a float (even a
    whole one) or any other type is a ValueError naming ``name``."""
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def number(name: str, value) -> float:
    """``value`` as a float when it is a real number; a bool, a numeric
    string, an integer too large for a float or any other type is a
    ValueError naming ``name``."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # its repr could run to thousands of digits
        raise ValueError(f"{name} is too large for a float") from None


def string(name: str, value) -> str:
    """``value`` when it is a string; any other type is a ValueError naming
    ``name``."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def json_list(data: dict, key: str, where: str | None = None) -> list:
    """``data[key]`` when it is a list, ``[]`` when it is absent; anything
    else is a DocumentError at ``where`` (default ``key``)."""
    value = data.get(key, [])
    if type(value) is not list:
        raise DocumentError(where or key, f"expected a list, got {type(value).__name__}")
    return value


def number_list(name: str, value, n: int | None = None) -> list[float]:
    """``value`` as a list of floats when it is a list of numbers, of length
    ``n`` unless ``n`` is None; anything else is a ValueError naming
    ``name`` or its first bad item."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    if n is not None and len(value) != n:
        raise ValueError(f"{name} needs {n} values, got {len(value)}")
    try:
        out = [float(v) for v in value if type(v) is float or type(v) is int]
    except OverflowError:  # an integer too large for a float: found below
        out = []
    if len(out) == len(value):
        return out
    return [number(f"{name}[{k}]", v) for k, v in enumerate(value)]
