"""The README's Python quick start runs and gives what its comments state."""

import re
from fractions import Fraction
from pathlib import Path

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
