"""``tools/artifact_hashes.py --compare OLD NEW --max-rel R`` on small artifact trees."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"


def write_tree(root, rate=1.25, kind="quadratic", svg="<svg/>", csv_cell="0.5"):
    root.mkdir()
    (root / "summary.json").write_text(json.dumps({"fitted_rate": rate, "kind": kind}))
    (root / "entropy.csv").write_text(f"t,entropy\n0,1\n1,{csv_cell}\n")
    (root / "entropy.svg").write_text(svg)
    return root


def compare(tmp_path, new, max_rel="5e-14"):
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new", **new)
    args = [sys.executable, str(TOOL), "--compare", str(old), str(new)]
    if max_rel is not None:
        args += ["--max-rel", max_rel]
    return subprocess.run(args, capture_output=True, text=True)


@pytest.mark.parametrize("new, code, printed", [
    ({}, 0, ""),
    ({"rate": 1.25 * (1 + 2e-14)}, 0, "summary.json fitted_rate: 1.99"),
    ({"rate": 1.25 * (1 + 1e-13)}, 1, "summary.json fitted_rate: 9.98"),
    ({"kind": "logarithmic"}, 1, "summary.json: non-numeric text differs"),
    ({"csv_cell": "x"}, 1, "entropy.csv: non-numeric text differs"),
    ({"svg": "<svg />"}, 1, "entropy.svg: bytes differ"),
], ids=["identical", "within", "beyond", "json-text", "csv-text", "svg"])
def test_compare_exits_1_past_the_bound_or_on_text(tmp_path, new, code, printed):
    result = compare(tmp_path, new)
    assert result.returncode == code
    assert printed in result.stdout


def test_compare_exits_1_on_a_file_on_one_side_only(tmp_path):
    old = write_tree(tmp_path / "old")
    new = write_tree(tmp_path / "new")
    (new / "entropy.svg").unlink()
    for a, b in ((old, new), (new, old)):
        result = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b),
                                 "--max-rel", "1"], capture_output=True, text=True)
        assert result.returncode == 1
        assert f"entropy.svg: missing in {new}" in result.stdout


def test_compare_without_a_bound_only_reports(tmp_path):
    result = compare(tmp_path, {"rate": 2.5, "kind": "logarithmic"}, max_rel=None)
    assert result.returncode == 0
    assert "fitted_rate: 5.000e-01" in result.stdout
