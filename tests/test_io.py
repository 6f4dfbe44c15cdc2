"""Output files: one definition per layout, and the format version 2 record
round-trips every float64 bit."""

import dataclasses
import json
import re
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from contourdyn import __version__
from contourdyn.analysis import DepthDiagnostics
from contourdyn.cli import initial_state
from contourdyn.config import parse_config, with_grid
from contourdyn.errors import ValidationError
from contourdyn.evolve import step
from contourdyn.geometry import Grid, InterfaceCurve
from contourdyn.io import (
    DiagnosticsCsvSink, SnapshotJsonlSink, curve_from_record, curve_record, read_snapshots
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_sink_round_trip_is_bit_exact(tmp_path):
    # an evolved N = 2048 curve, with a signed zero and a subnormal sample
    parsed = with_grid(parse_config(str(CONFIGS / "stable_relaxation.cfg")), 2048)
    state = step(initial_state(parsed), parsed.sim)
    z1, z2 = state.curve.z1.copy(), state.curve.z2.copy()
    z1[1000], z2[1001] = -0.0, 5e-324
    curve = InterfaceCurve(state.curve.grid, z1, z2)
    path = tmp_path / "snapshots.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        SnapshotJsonlSink(fh, parsed.sha256, __version__).on_snapshot(state.t, curve, state.omega)
    ((t, back),) = read_snapshots(str(path))
    assert t == state.t
    assert back.grid == curve.grid
    assert back.z1.tobytes() == curve.z1.tobytes()
    assert back.z2.tobytes() == curve.z2.tobytes()
    assert np.signbit(back.z1[1000]) and back.z2[1001] == 5e-324


def test_file_without_header_rejected(tmp_path):
    curve = initial_state(parse_config(str(CONFIGS / "stable_relaxation.cfg"))).curve
    path = tmp_path / "snapshots.jsonl"
    path.write_text(json.dumps(curve_record(curve, 0.0)) + "\n")
    with pytest.raises(ValidationError, match="format version 2: line 1 has format None"):
        read_snapshots(str(path))


@pytest.mark.parametrize(
    "samples",
    ["not base64!", "AAAAAAAAAAAAAAAA", "é" * 8],
    ids=["alphabet", "12-bytes", "non-ascii"],
)
def test_malformed_samples_rejected(samples):
    grid = Grid(20.0, 32)
    record = curve_record(InterfaceCurve(grid, grid.alpha, np.ones(32)), 0.0)
    record["z2"] = samples
    with pytest.raises(ValidationError, match="not numeric"):
        curve_from_record(record)


def csv_header() -> list[str]:
    fh = StringIO()
    DiagnosticsCsvSink(fh, "0" * 64, __version__)
    return fh.getvalue().splitlines()


def test_csv_columns_are_the_depth_diagnostics_fields():
    assert csv_header()[2].split(",") == [f.name for f in dataclasses.fields(DepthDiagnostics)]


def test_readme_lists_the_csv_header():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("`diagnostics.csv` has one row", 1)[1]
    assert re.search(r"```\n(.*?)\n```", section, re.S).group(1) == csv_header()[2]
