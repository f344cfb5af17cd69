"""The parent-against-change harness (tools/differential.py) on a short stream."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARATIONS = Path("tools") / "expected_differences.json"


def _copy_tree(dest: Path) -> Path:
    """This tree's src/ and tools/, as a tree of its own at dest."""
    for part in ("src", "tools"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _differential(tree: Path, parent: Path, instances: int) -> subprocess.CompletedProcess:
    """tree's differential.py run against parent."""
    return subprocess.run(
        [sys.executable, str(tree / "tools" / "differential.py"),
         "--parent", str(parent), "--instances", str(instances)],
        capture_output=True, text=True, timeout=600,
    )


def _table(stdout: str) -> dict[str, tuple[int, int, int]]:
    """field -> (results, undeclared, declared) from the run's first table."""
    rows = {}
    for line in stdout.split("\n\n")[0].splitlines()[1:]:
        field, *counts = line.split()
        rows[field] = tuple(map(int, counts))
    return rows


def test_mutated_copy_is_flagged_and_the_rest_agrees(tmp_path):
    # a copy whose p-value bounds pair both endpoints with sigma2_min only
    shutil.copytree(ROOT / "src" / "rankguard", tmp_path / "src" / "rankguard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # the same declarations as this tree, so that none applies
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / DECLARATIONS, tmp_path / DECLARATIONS)
    bounds = tmp_path / "src" / "rankguard" / "bounds.py"
    text = bounds.read_text()
    original = "for v in ((lo,) if lo == hi else (lo, hi))"
    assert original in text
    bounds.write_text(text.replace(original, "for v in (lo,)"))
    done = _differential(ROOT, tmp_path, 200)
    assert done.returncode == 1, done.stdout + done.stderr
    rows = _table(done.stdout)
    assert rows["report_general"][1] > 0 and rows["p_value_bounds_synthetic"][1] > 0
    assert rows["cli_test"][1] > 0
    assert all(declared == 0 for _, _, declared in rows.values())
    # most commands run to the end, so the cli fields compare real output
    codes = {}
    for line in done.stdout.split("\n\n")[1].splitlines()[1:]:
        field, *counts = line.split()
        codes[field] = dict(count.split(":") for count in counts)
    for field in ("cli_test", "cli_analyze"):
        assert int(codes[field].get("0", 0)) > rows[field][0] / 2, (field, codes[field])
    # results that never reach p_value_bounds agree
    for field in ("wmw_test", "tie_corrected_variance", "impute_mean", "impute_hot_deck",
                  "boundary_counts"):
        assert rows[field] == (200, 0, 0), (field, rows[field])
    assert "first undeclared difference, instance (" in done.stdout


def test_a_declaration_covers_only_the_commit_that_adds_it(tmp_path, monkeypatch, capsys):
    # a copy whose wmw_test message for an empty side differs from this tree's
    changed = _copy_tree(tmp_path / "changed")
    wmw = changed / "src" / "rankguard" / "wmw.py"
    original = '"both samples must be nonempty"'
    assert wmw.read_text().count(original) == 1
    wmw.write_text(wmw.read_text().replace(original, '"both samples must hold a value"'))
    entries = json.loads((ROOT / DECLARATIONS).read_text())
    entry = {"field": "wmw_test", "kind": "may differ", "reason": "reworded empty-side message"}

    def declare(tree: Path, extra: list) -> None:
        (tree / DECLARATIONS).write_text(json.dumps(entries + extra))

    declare(changed, [entry])
    done = _differential(changed, ROOT, 30)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = _table(done.stdout)
    assert rows["wmw_test"][1] == 0 < rows["wmw_test"][2] and rows["all"][1] == 0

    declare(changed, [])
    done = _differential(changed, ROOT, 30)
    assert done.returncode == 1 and _table(done.stdout)["wmw_test"][1] > 0, done.stdout

    # a parent that already holds the entry: it declared its own change, not this one
    declare(changed, [entry])
    parent = _copy_tree(tmp_path / "parent")
    declare(parent, [entry])
    done = _differential(changed, parent, 30)
    assert done.returncode == 1 and _table(done.stdout)["wmw_test"][1] > 0, done.stdout

    # an entry that names a field neither tree emits, or another kind, is refused
    tool = changed / "tools" / "differential.py"
    spec = importlib.util.spec_from_file_location("differential", tool)
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    monkeypatch.setattr(differential, "_collect", lambda *args: {
        (0, "wmw_test"): {"digest": "", "preview": ""}})
    for bad in ({**entry, "field": "wmw"}, {**entry, "kind": "within 1e-10"}):
        declare(changed, [bad])
        assert differential.compare(ROOT, 0, 1) == 2
        assert "bad entry" in capsys.readouterr().err
