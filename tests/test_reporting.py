"""Tests for CSV/manifest emission and the SVG chart primitives."""

import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mcsgame.reporting import MANIFEST_NAME, format_value, sha256_file, write_csv, write_manifest
from mcsgame.svgplot import line_chart


# ---------------------------------------------------------------------------
# values and CSV


def test_format_value_bools_are_bits():
    assert format_value(True) == "1"
    assert format_value(False) == "0"


def test_format_value_floats_roundtrip():
    for v in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 104.11516926835274):
        assert float(format_value(v)) == v


def test_format_value_ints_and_numpy_scalars():
    assert format_value(42) == "42"
    assert format_value(np.int64(7)) == "7"
    assert float(format_value(np.float64(0.25))) == 0.25


def test_format_value_quotes_awkward_strings():
    assert format_value("plain") == "plain"
    assert format_value("a,b") == '"a,b"'
    assert format_value('say "hi"') == '"say ""hi"""'


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [[1, 0.5], [2, True]])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,0.5\n2,1\n"


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1]])


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 1000
    path.write_bytes(payload)
    assert sha256_file(str(path)) == hashlib.sha256(payload).hexdigest()


def test_manifest_contents_and_determinism(tmp_path):
    write_csv(str(tmp_path / "x.csv"), ["v"], [[1]])
    cfg = {"seed": 3, "scenario": {"n_mus": 5}}
    write_manifest(str(tmp_path), "static", cfg, ["x.csv"])
    first = (tmp_path / MANIFEST_NAME).read_bytes()
    manifest = json.loads(first)
    assert manifest["format"] == "mcsgame-manifest"
    assert manifest["version"] == 1
    assert manifest["command"] == "static"
    assert manifest["config"] == cfg
    assert manifest["artifacts"]["x.csv"] == sha256_file(str(tmp_path / "x.csv"))
    write_manifest(str(tmp_path), "static", cfg, ["x.csv"])
    assert (tmp_path / MANIFEST_NAME).read_bytes() == first


# ---------------------------------------------------------------------------
# SVG charts


def _chart_bytes(tmp_path, fn, name, *args, **kwargs):
    path = tmp_path / name
    fn(str(path), *args, **kwargs)
    return path.read_bytes()


def test_line_chart_is_valid_self_contained_svg(tmp_path):
    xs = list(range(10))
    raw = _chart_bytes(
        tmp_path,
        line_chart,
        "c.svg",
        "payoff over episodes",
        "episode",
        "payoff",
        {"training": (xs, [x * 0.5 for x in xs]), "reference": (xs, [4.0] * 10)},
    )
    root = ET.fromstring(raw)
    assert root.tag.endswith("svg")
    assert b"http" not in raw.replace(b"http://www.w3.org", b"")
    assert b"payoff over episodes" in raw
    # a two-series chart carries a legend with both names
    assert b"training" in raw and b"reference" in raw


def test_line_chart_deterministic(tmp_path):
    series = {"s": ([0, 1, 2], [1.0, -1.0, 2.5])}
    a = _chart_bytes(tmp_path, line_chart, "a.svg", "t", "x", "y", series)
    b = _chart_bytes(tmp_path, line_chart, "b.svg", "t", "x", "y", series)
    assert a == b


def test_line_chart_handles_constant_series(tmp_path):
    raw = _chart_bytes(
        tmp_path, line_chart, "flat.svg", "t", "x", "y", {"s": ([0, 1], [3.0, 3.0])}
    )
    ET.fromstring(raw)


def test_line_chart_rejects_mismatched_lengths(tmp_path):
    with pytest.raises(ValueError):
        line_chart(str(tmp_path / "bad.svg"), "t", "x", "y", {"s": ([0, 1], [1.0])})

