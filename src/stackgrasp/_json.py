"""The boundary for input files and JSON documents: ``read_file`` reads
every input file, ``load`` decodes every document, the field readers
accept a field only as the JSON type it must have (a JSON integer is read
as a float in a number field), and the row readers build the boxes and
grasp rectangles that scenes and predictions share. Each error names the
field's JSON path, or the field within an object whose path the caller
adds; ``read_file`` puts the file's path in front.

``read_file`` pauses the cyclic garbage collector while it reads and
parses. A decoded document and the records built from it hold no
reference cycles, so reference counting frees them and a collection
during a parse reclaims nothing: it only walks the growing tree, and a
dense predictions file's tree is large enough to set off full
collections. The collector's on/off flag is process-wide: when two
threads read at once, one may turn the collector back on while the other
still parses. That costs time but never changes a result."""

from __future__ import annotations

import gc
import json
import numbers
from pathlib import Path

from .geometry import AABox, OrientedRect


class DocumentError(ValueError):
    """Invalid input document or unreadable input file; ``where`` holds the
    JSON path of the problem, or the path of the file."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def read_file(path, parse):
    """``parse`` applied to the text of the file at ``path``. A file that
    cannot be read or decoded, or a ValueError from ``parse``, is a
    DocumentError at the path. The garbage collector is paused meanwhile
    and turned back on only if it was on."""
    # eval passes hundreds of Paths a call; Path(p) would parse each again
    path = path if isinstance(path, Path) else Path(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return parse(path.read_text())
    except OSError as e:
        raise DocumentError(str(path), e.strerror or str(e)) from e
    except ValueError as e:
        raise DocumentError(str(path), str(e)) from e
    finally:
        if collecting:
            gc.enable()


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


def json_object(value) -> dict:
    """``value`` when it is a JSON object (a dict); any other type is a
    ValueError."""
    if type(value) is not dict:
        raise ValueError(f"expected an object, got {type(value).__name__}")
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


# A row whose fields already have their exact JSON types takes the typed
# fast path of its reader; any other row goes through the strict readers,
# which convert an integer coordinate to a float or raise the row's error.


def box_row(row) -> tuple[int, str, AABox]:
    """The ``id``, ``category`` and ``bbox`` of a scene object or detection
    row: an int, a non-empty string and four numbers forming an AABox. A
    ValueError names the first bad field, in that order."""
    try:
        instance_id, category, bbox = row["id"], row["category"], row["bbox"]
        x0, y0, x1, y1 = bbox
    except (KeyError, TypeError, ValueError):
        bbox = None
    if not (
        type(bbox) is list and type(instance_id) is int and type(category) is str and category
        and type(x0) is float and type(y0) is float and type(x1) is float and type(y1) is float
    ):
        instance_id = integer("id", json_object(row)["id"])
        category = string("category", row["category"])
        if not category:
            raise ValueError("empty category name")
        x0, y0, x1, y1 = number_list("bbox", row["bbox"], 4)
    return instance_id, category, AABox(x0, y0, x1, y1)


def grasp_rect(row) -> OrientedRect:
    """The ``rect`` of a scene grasp or grasp candidate row: five numbers
    forming an OrientedRect; anything else is a ValueError."""
    try:
        rect = row["rect"]
        x, y, w, h, theta = rect
    except (KeyError, TypeError, ValueError):
        rect = None
    if not (
        type(rect) is list and type(x) is float and type(y) is float
        and type(w) is float and type(h) is float and type(theta) is float
    ):
        x, y, w, h, theta = number_list("rect", json_object(row)["rect"], 5)
    return OrientedRect(x, y, w, h, theta)
