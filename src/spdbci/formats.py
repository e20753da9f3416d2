"""On-disk formats: report writers, the float64 payload codec, and the
checked JSON header shared by the dataset manifest and the model.

Reports are UTF-8 with LF line endings. JSON is written with sorted keys,
indent 2 and a final newline; CSV cells follow one rule (:func:`csv_cell`).
Payloads are raw little-endian float64 in C order. A header is a JSON
object whose keys and value kinds are declared in a field table; any
deviation is a :class:`~spdbci.errors.DataFormatError`.
"""

import json
import math
import sys

import numpy as np

from .errors import ManifestError, ShapeMismatchError, UnsupportedVersionError

# Value kinds of a header field table; each names itself in error messages.
INT = "an integer"
INTS = "a list of integers"
NUMBER = "a finite number"
NUMBER_OR_NULL = "a finite number or null"
NUMBERS = "a list of finite numbers"
STRING = "a string"
STRINGS = "a list of strings"
OPTIONAL_OBJECT = "a JSON object, if present"


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    if _is_int(value):  # a JSON integer may exceed the float range
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _is_str(value):
    return isinstance(value, str)


_FITS = {
    INT: _is_int,
    INTS: _list_of(_is_int),
    NUMBER: _is_number,
    NUMBER_OR_NULL: lambda value: value is None or _is_number(value),
    NUMBERS: _list_of(_is_number),
    STRING: _is_str,
    STRINGS: _list_of(_is_str),
    OPTIONAL_OBJECT: lambda value: isinstance(value, dict),
}


def csv_cell(value):
    """One CSV cell: floats (numpy scalars included) as ``repr`` of the
    Python float, ``None`` empty, bools ``1``/``0``, anything else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """Write a header line and one line per row of cells."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(csv_cell, row)) + "\n")


def write_json(path, doc):
    """Write ``doc`` as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def f64_bytes(array):
    """Raw little-endian float64 bytes of ``array`` in C order."""
    return np.ascontiguousarray(array, dtype="<f8").tobytes(order="C")


def f64_array(raw, shape, what):
    """Writable array of ``shape`` decoded from :func:`f64_bytes` output.

    Raises ShapeMismatchError, naming ``what``, when the byte count is not
    the one ``shape`` implies.
    """
    expected = 8 * math.prod(shape)
    if min(shape, default=0) < 0 or len(raw) != expected:
        raise ShapeMismatchError(
            f"{what} holds {len(raw)} bytes, its header implies {expected} "
            f"(shape {tuple(shape)})")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def read_header(raw, fields, version, where):
    """Decode a UTF-8 JSON object and check it against a field table.

    A ``version`` other than the given one raises UnsupportedVersionError;
    any other defect raises ManifestError naming ``where``.
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, an over-long integer
        raise ManifestError(f"unreadable {where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{where} must be a JSON object")
    if doc.get("version") != version:
        raise UnsupportedVersionError(
            f"unsupported {where} version {doc.get('version')!r} "
            f"(expected {version!r})")
    check_fields(doc, fields, where)
    return doc


def check_fields(obj, fields, where, exact=True):
    """Raise ManifestError unless ``obj`` is a JSON object holding exactly
    the keys of ``fields`` (an OPTIONAL_OBJECT one may be absent), each
    value of its kind; a nested field table recurses. With ``exact``
    false, keys may be absent or extra and only present ones are checked."""
    if not isinstance(obj, dict):
        raise ManifestError(f"{where} must be a JSON object")
    missing = sorted(key for key, kind in fields.items()
                     if key not in obj and kind != OPTIONAL_OBJECT)
    unexpected = sorted(set(obj) - set(fields))
    if exact and (missing or unexpected):
        raise ManifestError(f"{where} lacks keys {missing} or has "
                            f"unexpected keys {unexpected}")
    for key, kind in fields.items():
        if key not in obj:
            continue
        if isinstance(kind, dict):
            check_fields(obj[key], kind, f"{where}.{key}")
        elif not _FITS[kind](obj[key]):
            raise ManifestError(
                f"{where}.{key} must be {kind}, got {obj[key]!r}")
