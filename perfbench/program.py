"""Locate the contourdyn sources of the checkout this benchmark sits in.

The benchmark runs the program from source: it puts ``<checkout>/src`` first
on ``sys.path`` and refuses to run against any other copy of ``contourdyn``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"


def require_sources() -> None:
    """Make ``import contourdyn`` load the checkout's sources, or exit non-zero."""
    if not (SRC / "contourdyn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no contourdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import contourdyn

    if Path(contourdyn.__file__).resolve().parent != SRC / "contourdyn":
        raise SystemExit(f"perfbench: imported contourdyn from {contourdyn.__file__}, not {SRC}")
