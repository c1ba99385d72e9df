"""scripts/gate.py's verdict rule and artifact comparison, checked without
running a checkout."""

import importlib.util
import os

import pytest

GATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "gate.py")

# an A'/A control over 20 rounds: quartiles 0.99 and 1.01
CONTROL = [0.97, 0.99, 1.0, 1.01, 1.03] * 4


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ba, expected", [
    ([0.9] * 19 + [1.02], "faster"),
    ([0.9] * 18 + [1.02, 1.05], "faster"),  # faster in exactly nine rounds in ten
    ([1.1] * 18 + [0.95, 0.98], "slower"),
    (CONTROL, "not resolved"),  # B/A median inside the A'/A quartiles
    ([0.995] * 20, "not resolved"),  # faster in every round, but inside the quartiles
    ([0.9] * 17 + [1.05] * 3, "not resolved"),  # outside the quartiles, faster in 17 of 20
    ([1.1] * 17 + [0.95] * 3, "not resolved"),
    ([0.9] * 17 + [1.0] * 3, "not resolved"),  # a tie counts for neither side
])
def test_verdict(gate, ba, expected):
    assert gate.verdict(ba, CONTROL) == expected


def test_summary(gate):
    s = gate.summary(CONTROL)
    assert (s["q1"], s["median"], s["q3"]) == pytest.approx((0.99, 1.0, 1.01))
    s = gate.summary([0.9, 1.0, 1.1, 0.8])
    assert (s["median"], s["wins"], s["ratios"]) == (pytest.approx(0.95), 2, [0.9, 1.0, 1.1, 0.8])


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_artifact_comparison_names_exactly_the_changed_file(gate, tmp_path):
    files = {"flu/1000/out/tree.json": b'{"nodes": []}\n', "flu/1000/out/cv_report.tsv": b"k\tloss\n1\t0.5\n",
             "study_all/out/records.tsv": bytes(range(256)), "fit_exhaustive/2000/out.predict.csv": b"x,tau\n"}
    write_tree(tmp_path / "a", files)
    write_tree(tmp_path / "b", files)
    assert gate.differing(str(tmp_path / "a"), str(tmp_path / "b")) == []
    path = tmp_path / "b" / "study_all" / "out" / "records.tsv"
    data = bytearray(path.read_bytes())
    data[100] ^= 1
    path.write_bytes(bytes(data))
    assert gate.differing(str(tmp_path / "a"), str(tmp_path / "b")) == ["study_all/out/records.tsv"]


def test_artifact_comparison_names_a_file_on_one_side_only(gate, tmp_path):
    write_tree(tmp_path / "a", {"x/out/tree.json": b"{}"})
    write_tree(tmp_path / "b", {"x/out/tree.json": b"{}", "x/out/extra.tsv": b""})
    assert gate.differing(str(tmp_path / "a"), str(tmp_path / "b")) == ["x/out/extra.tsv"]
    assert gate.differing(str(tmp_path / "b"), str(tmp_path / "a")) == ["x/out/extra.tsv"]
