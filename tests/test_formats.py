import json

import numpy as np
import pytest

from spdbci import formats
from spdbci.errors import ManifestError, ShapeMismatchError, \
    UnsupportedVersionError


def test_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    formats.write_csv(path, ("a", "b", "c", "d", "e", "f"), [
        (None, True, False, np.float64(-0.25), 0.1, 7),
        (np.int64(3), "x", 2.0, None, float("nan"), -1),
    ])
    assert path.read_bytes() == (b"a,b,c,d,e,f\n"
                                 b",1,0,-0.25,0.1,7\n"
                                 b"3,x,2.0,,nan,-1\n")


def test_json_layout(tmp_path):
    path = tmp_path / "t.json"
    formats.write_json(path, {"b": [1, 2.5], "a": None})
    assert path.read_bytes() == (b'{\n  "a": null,\n  "b": [\n    1,\n'
                                 b'    2.5\n  ]\n}\n')


def test_f64_round_trip_and_wrong_size():
    values = np.arange(6.0).reshape(2, 3) / 7.0
    raw = formats.f64_bytes(values)
    back = formats.f64_array(raw, (2, 3), "payload")
    assert np.array_equal(back, values)
    back[0, 0] = 1.0  # writable, independent of the bytes
    with pytest.raises(ShapeMismatchError, match="payload holds 40 bytes"):
        formats.f64_array(raw[:-8], (2, 3), "payload")
    with pytest.raises(ShapeMismatchError):
        formats.f64_array(raw, (-2, -3), "payload")


_FIELDS = {"version": formats.STRING, "n": formats.INT,
           "meta": formats.OPTIONAL_OBJECT}


def _header(doc):
    return formats.read_header(json.dumps(doc).encode(), _FIELDS, "V 1",
                               "test header")


def test_read_header_accepts_declared_fields():
    assert _header({"version": "V 1", "n": 3}) == {"version": "V 1", "n": 3}
    assert _header({"version": "V 1", "n": 3, "meta": {}})["meta"] == {}


@pytest.mark.parametrize("raw", [
    b'{"version": "V 1", "n": 3, "x": "\xff"}',
    b"[1, 2]",
    b'"V 1"',
    b"{ not json",
    b'{"version": "V 1", "n": ' + b"9" * 5000 + b"}",
])
def test_read_header_unreadable_or_not_object(raw):
    with pytest.raises(ManifestError, match="test header"):
        formats.read_header(raw, _FIELDS, "V 1", "test header")


def test_read_header_wrong_version():
    with pytest.raises(UnsupportedVersionError):
        _header({"version": "V 2", "n": 3})


@pytest.mark.parametrize("doc", [
    {"version": "V 1"},
    {"version": "V 1", "n": 3, "extra": 1},
    {"version": "V 1", "n": True},
    {"version": "V 1", "n": 3.0},
    {"version": "V 1", "n": 3, "meta": []},
])
def test_read_header_field_errors(doc):
    with pytest.raises(ManifestError):
        _header(doc)
