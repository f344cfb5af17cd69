"""The parent-against-change harness (tools/differential.py) on a short stream."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mutated_copy_is_flagged_and_the_rest_agrees(tmp_path):
    # a copy whose p-value bounds pair both endpoints with sigma2_min only
    shutil.copytree(ROOT / "src" / "rankguard", tmp_path / "src" / "rankguard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bounds = tmp_path / "src" / "rankguard" / "bounds.py"
    text = bounds.read_text()
    original = "for v in ((lo,) if lo == hi else (lo, hi))"
    assert original in text
    bounds.write_text(text.replace(original, "for v in (lo,)"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"),
         "--parent", str(tmp_path), "--instances", "200"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    table, exits = done.stdout.split("\n\n")[:2]
    rows = {}
    for line in table.splitlines()[1:]:
        field, results, differ = line.split()
        rows[field] = int(results), int(differ)
    assert rows["report_general"][1] > 0 and rows["p_value_bounds_synthetic"][1] > 0
    assert rows["cli_test"][1] > 0
    # most commands run to the end, so the cli fields compare real output
    codes = {}
    for line in exits.splitlines()[1:]:
        field, *counts = line.split()
        codes[field] = dict(count.split(":") for count in counts)
    for field in ("cli_test", "cli_analyze"):
        assert int(codes[field].get("0", 0)) > rows[field][0] / 2, (field, codes[field])
    # results that never reach p_value_bounds agree
    for field in ("wmw_test", "tie_corrected_variance", "impute_mean", "impute_hot_deck",
                  "boundary_counts"):
        assert rows[field] == (200, 0), (field, rows[field])
    assert "first differing instance (" in done.stdout
