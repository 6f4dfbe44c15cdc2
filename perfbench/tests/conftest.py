"""Make the benchmark modules and the checkout's contourdyn importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import program  # noqa: E402

program.require_sources()
