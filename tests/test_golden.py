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


def test_write_reports_each_replaced_file_against_its_old_reference(monkeypatch, tmp_path, capsys):
    # references made from this tree's own output, then one kept, one
    # moved within tolerance, one moved beyond it and one removed
    cases = ("static-s1-uniform-n5", "static-s1-linear-n5")
    monkeypatch.setattr(golden, "CASES", {name: golden.CASES[name] for name in cases})
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden")
    fresh = {name: golden.run_case(name, tmp_path / "run") for name in cases}
    for name, files in fresh.items():
        (golden.GOLDEN / name).mkdir(parents=True)
        for file_name, data in files.items():
            (golden.GOLDEN / name / file_name).write_bytes(data)

    def rewrite(name, file_name, edit):
        path = golden.GOLDEN / name / file_name
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = edit(cells[-1])  # the first user's mu_payoff, or the converged flag
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    rewrite(cases[0], "equilibrium.csv", lambda v: repr(float(v) * (1.0 + 1e-14)))
    rewrite(cases[1], "summary.csv", lambda v: "0")
    (golden.GOLDEN / cases[1] / "equilibrium.csv").unlink()

    assert golden.main(["--write", "static"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(f"wrote {cases[0]}/equilibrium.csv: bytes differ, within tolerance")
    assert lines[1] == f"wrote {cases[0]}/summary.csv: identical bytes"
    assert lines[2] == f"wrote {cases[1]}/equilibrium.csv: new file"
    assert lines[3].startswith(f"wrote {cases[1]}/summary.csv: DIFFERS beyond tolerance")
    for name, files in fresh.items():
        for file_name, data in files.items():
            assert (golden.GOLDEN / name / file_name).read_bytes() == data
