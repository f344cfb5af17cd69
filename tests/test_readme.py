"""The README's Python quick start runs and gives what its comments state,
and every `rankguard` command it shows exits 0."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from rankguard import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    for stated in ("# 'significant'", "[3, 17/2]", "alpha=0.05"):
        assert stated in block
    namespace: dict = {}
    exec(block, namespace)
    report = namespace["report"]
    assert report.decision.value == "significant"
    assert (report.w_bounds.w_min, report.w_bounds.w_max) == (3, Fraction(17, 2))
    assert report.p_max < 0.05


def _block_after(text: str, lead: str) -> str:
    """The first fenced block after the paragraph that starts with lead."""
    return re.search(rf"^{re.escape(lead)}.*?```\n(.*?)```", text, re.S | re.M).group(1)


def test_every_rankguard_command_runs(tmp_path, monkeypatch, capsys):
    # the files the commands name, from the README's own blocks
    text = README.read_text()
    (tmp_path / "scenario.txt").write_text(_block_after(text, "A scenario file is plain"))
    (tmp_path / "arms.csv").write_text(_block_after(text, "A grouped data file is a CSV"))
    monkeypatch.chdir(tmp_path)
    commands = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.splitlines() if line.startswith("rankguard ")]
    assert len(commands) == 6
    for line in commands:
        code = cli.main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
