"""Import rankguard from this checkout's src/ and nowhere else."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_rankguard():
    """Put src/ first on the path and import the package from there.

    Raises ImportError when src/ is absent or the package resolves to
    another installation, so a run never measures code outside the checkout.
    """
    if not (SRC / "rankguard" / "__init__.py").is_file():
        raise ImportError(f"no rankguard package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankguard

    if not Path(rankguard.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"rankguard resolved to {rankguard.__file__}, not under {SRC}")
    return rankguard
