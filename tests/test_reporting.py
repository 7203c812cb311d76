"""Tests for CSV/manifest emission and the SVG chart primitives."""

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcsgame.reporting import BLOCK_ROWS, MANIFEST_NAME, sha256_file, write_csv, write_manifest
from mcsgame.svgplot import _ticks, line_chart


# ---------------------------------------------------------------------------
# column tables as CSV


def _csv(tmp_path, columns) -> str:
    path = tmp_path / "t.csv"
    assert write_csv(str(path), columns) == str(path)
    return path.read_bytes().decode()


def test_bool_columns_print_as_bits(tmp_path):
    assert _csv(tmp_path, {"b": [True, False]}) == "b\n1\n0\n"
    assert _csv(tmp_path, {"b": np.array([False, True])}) == "b\n0\n1\n"


def test_float_columns_roundtrip(tmp_path):
    values = [0.1, 1.0 / 3.0, 1e-17, -2.5e300, 104.11516926835274, -0.0, 5e-324,
              1.7976931348623157e308]
    lines = _csv(tmp_path, {"v": values}).splitlines()
    assert lines[0] == "v" and lines[1:] == ["%.17g" % v for v in values]
    assert lines[6:] == ["-0", "4.9406564584124654e-324", "1.7976931348623157e+308"]
    got = [float(cell) for cell in lines[1:]]
    assert got == values and math.copysign(1.0, got[5]) == -1.0
    # an integral float keeps no decimal point, as %.17g prints it
    assert _csv(tmp_path, {"v": [2.0]}) == "v\n2\n"


def test_int_columns_print_as_integers(tmp_path):
    assert _csv(tmp_path, {"i": [42, -3]}) == "i\n42\n-3\n"
    assert _csv(tmp_path, {"i": [np.int64(7), np.int32(-8)]}) == "i\n7\n-8\n"
    # the largest seed the config accepts makes a uint64 column
    seed = 2**64 - 1
    assert np.asarray([seed]).dtype == np.uint64
    assert _csv(tmp_path, {"seed": [seed]}) == f"seed\n{seed}\n"


def test_string_columns_quote_awkward_cells(tmp_path):
    cells = ["plain", "a,b", 'say "hi"', "two\nlines", ""]
    assert _csv(tmp_path, {"s": cells, "n": range(5)}) == (
        's,n\nplain,0\n"a,b",1\n"say ""hi""",2\n"two\nlines",3\n,4\n')


def test_write_csv_layout(tmp_path):
    assert _csv(tmp_path, {"a": [1, 2], "b": [0.5, 0.25]}) == "a,b\n1,0.5\n2,0.25\n"


def test_two_dimensional_column_spreads_into_numbered_columns(tmp_path):
    table = {"e": [1, 2], "f": [np.array([0.5, 1.0, 1.5]), np.array([2.0, 2.5, 3.0])],
             "g": np.array([[True], [False]])}
    assert _csv(tmp_path, table) == "e,f_1,f_2,f_3,g_1\n1,0.5,1,1.5,1\n2,2,2.5,3,0\n"


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(str(tmp_path / "t.csv"), {"a": [1, 2], "b": [0.5]})
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(str(tmp_path / "t.csv"), {"a": [1, 2], "f": np.zeros((3, 2))})


def test_empty_table_writes_only_its_header(tmp_path):
    table = {"a": [], "b": np.empty(0, dtype=bool), "f": np.empty((0, 2))}
    assert _csv(tmp_path, table) == "a,b,f_1,f_2\n"


def test_table_past_a_block_matches_row_by_row_formatting(tmp_path):
    rows = BLOCK_ROWS + 1
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    table = {"i": np.arange(rows), "x": x, "ok": x > 0, "name": [f"u{k}" for k in range(rows)],
             "m": rng.standard_normal((rows, 2)), "big": np.full(rows, 2**64 - 1, dtype=np.uint64)}

    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        return "%.17g" % v if isinstance(v, float) else str(v)

    want = ["i,x,ok,name,m_1,m_2,big"]
    for k in range(rows):
        want.append(",".join(cell(v) for v in (
            k, float(x[k]), bool(x[k] > 0), f"u{k}", *table["m"][k].tolist(), 2**64 - 1)))
    assert _csv(tmp_path, table) == "\n".join(want) + "\n"


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 1000
    path.write_bytes(payload)
    assert sha256_file(str(path)) == hashlib.sha256(payload).hexdigest()


def test_manifest_contents_and_determinism(tmp_path):
    write_csv(str(tmp_path / "x.csv"), {"v": [1]})
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_line_chart_names_the_series_with_a_point_that_is_not_finite(tmp_path, value, axis):
    # NaN used to write "nan" coordinates and an infinity to overflow in the ticks
    good = [0.0, 1.0, 2.0]
    bad = [0.0, value, 2.0]
    series = {"fine": (good, good),
              "broken": (bad, good) if axis == "xs" else (good, np.array(bad))}
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match="'broken'"):
        line_chart(str(path), "t", "x", "y", series)
    assert not path.exists()


@st.composite
def _tick_ranges(draw):
    """lo < hi up to 1e300 in magnitude: a span of a few ulps, or any span."""
    lo = draw(st.floats(-1e300, 1e300))
    if draw(st.booleans()):
        hi = lo
        for _ in range(draw(st.integers(1, 8))):
            hi = math.nextafter(hi, math.inf)
    else:
        assume(lo < 1e300)
        hi = draw(st.floats(lo, 1e300, exclude_min=True))
    return lo, hi


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_tick_ranges())
def test_ticks_are_few_increasing_and_finite(bounds):
    lo, hi = bounds
    ticks = _ticks(lo, hi)
    assert len(ticks) <= 10
    assert all(math.isfinite(t) for t in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


@pytest.mark.parametrize("lo, hi, want", [
    (1e17, 1.0000000000000002e17, [1e17]),  # a step of 5 is lost to rounding at 1e17
    (0.0, 1.0, [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]),
    (20.0, 50.0, [20.0, 30.0, 40.0, 50.0]),
    (0.0, 5e-324, [0.0, 5e-324]),  # a fifth of the span rounds to 0
])
def test_ticks_examples(lo, hi, want):
    assert _ticks(lo, hi) == want
