"""This tree's command outputs against the references in tests/golden/ (tools/golden.py)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_outputs_match_references_within_tolerance(case, tmp_path):
    reports = golden.check_case(case, tmp_path)
    assert [f for f, _, _ in reports] == list(golden.CASES[case][2])
    bad = [f"{f}: {report}" for f, ok, report in reports if not ok]
    assert not bad, "\n".join(bad)


def test_reference_set_is_small_and_complete():
    files = [p for p in golden.GOLDEN.rglob("*") if p.is_file()]
    assert sum(p.stat().st_size for p in files) < 200_000
    assert sorted(str(p.relative_to(golden.GOLDEN)) for p in files) == sorted(
        f"{case}/{f}" for case, (_, _, kept) in golden.CASES.items() for f in kept
    )
    assert {f for _, _, kept in golden.CASES.values() for f in kept} == set(golden.TOLERANCES)


@pytest.mark.parametrize("want, got, ok", [
    (b"a,b\n1,0.5\n", b"a,b\n1,0.5\n", True),
    (b"a,b\n1,0.5\n", b"a,b\n1,0.50000000000001\n", True),  # 2e-14 relative
    (b"a,b\n1,0.5\n", b"a,b\n1,0.5000001\n", False),
    (b"a,b\n1,0.5\n", b"a,b\n2,0.5\n", False),  # integers match exactly
    (b"a,b\n1,0.5\n", b"a,c\n1,0.5\n", False),  # and strings
    (b"a,b\n1,0.5\n", b"a,b\n1,0.5\n1,0.5\n", False),
    (b"a,b\n1,1\n", b"a,b\n1,0.99999999999999\n", True),  # a float printed as an integer
    (b"a,b\n1,0.5\n", b"a,b\n1,nan\n", False),
])
def test_compare_applies_the_file_tolerance(want, got, ok):
    assert golden.compare("episodes.csv", want, got)[0] is ok


def test_compare_walks_json_trees():
    want = b'{"a": [1.0, 2], "b": "x", "c": true}'
    assert golden.compare("checkpoint.json", want, b'{"a": [1.000000000000001, 2], "b": "x", '
                                                  b'"c": true}')[0]
    for got in (b'{"a": [1.0, 3], "b": "x", "c": true}', b'{"a": [1.0], "b": "x", "c": true}',
                b'{"a": [1.0, 2], "b": "y", "c": true}', b'{"a": [1.0, 2], "b": "x", "c": 1}',
                b'{"a": [1.1, 2], "b": "x", "c": true}', b'{"b": "x", "a": [1.0, 2], "c": true}'):
        assert not golden.compare("checkpoint.json", want, got)[0], got
