"""Reproducible output streams: diagnostics CSV and snapshot JSON Lines.

Every file starts with a header block recording the tool version and the
SHA-256 of the canonical configuration, so identical configurations produce
byte-identical files.  Floats are written with shortest round-trip repr,
which preserves full double precision; snapshot samples are base64 of their
float64 bytes (geometry.curve_record), so they round-trip bit for bit.
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np

from .analysis import DepthDiagnostics
from .errors import ValidationError
from .geometry import InterfaceCurve, curve_record, curve_from_record
from .kernels import VorticityStrength

CSV_COLUMNS = (
    "t",
    "m",
    "alpha_star",
    "dmdt",
    "J",
    "J_m",
    "J_1",
    "J_inf",
    "chord_arc",
    "c2_norm",
    "omega_c1_norm",
    "tail_bound",
)

SNAPSHOT_FORMAT = "contourdyn.snapshots"
SNAPSHOT_FORMAT_VERSION = 2
DIAGNOSTICS_FORMAT = "contourdyn.diagnostics"


def _fmt(value: float) -> str:
    return repr(float(value))


class DiagnosticsCsvSink:
    """Streams DepthDiagnostics rows in the pinned column order."""

    def __init__(self, fh: IO[str], config_sha256: str, version: str):
        self._fh = fh
        fh.write(f"# {DIAGNOSTICS_FORMAT} v{version}\n")
        fh.write(f"# config_sha256={config_sha256}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")

    def on_diagnostics(self, diag: DepthDiagnostics) -> None:
        row = ",".join(_fmt(getattr(diag, name)) for name in CSV_COLUMNS)
        self._fh.write(row + "\n")

    def on_snapshot(self, t: float, curve: InterfaceCurve, omega: VorticityStrength) -> None:
        pass


class SnapshotJsonlSink:
    """Streams curve snapshots as JSON Lines records {t, half_width, z1, z2}."""

    def __init__(self, fh: IO[str], config_sha256: str, version: str):
        self._fh = fh
        header = {"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_FORMAT_VERSION}
        header.update(version=version, config_sha256=config_sha256)
        fh.write(json.dumps(header) + "\n")

    def on_diagnostics(self, diag: DepthDiagnostics) -> None:
        pass

    def on_snapshot(self, t: float, curve: InterfaceCurve, omega: VorticityStrength) -> None:
        self._fh.write(json.dumps(curve_record(curve, t)) + "\n")


def read_diagnostics(path: str) -> dict[str, np.ndarray]:
    """Read a diagnostics CSV back into column arrays (header block skipped)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    except OSError as exc:
        raise ValidationError(f"cannot read diagnostics {path!r}: {exc}") from None
    if not lines:
        raise ValidationError(f"no data rows in {path}")
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(names) for r in rows):
        raise ValidationError(f"ragged CSV rows in {path}")
    try:
        data = np.asarray(rows, dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"non-numeric CSV cell in {path}: {exc}") from None
    if data.size == 0:
        raise ValidationError(f"no data rows in {path}")
    return {name: data[:, k] for k, name in enumerate(names)}


def read_snapshots(path: str) -> list[tuple[float, InterfaceCurve]]:
    """Read snapshot records after the header on line 1, which must name this format version."""
    out: list[tuple[float, InterfaceCurve]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for k, line in enumerate(fh):
                if k > 0 and not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValidationError(f"snapshot line {k + 1} in {path!r} is not a JSON object")
                if k > 0:
                    out.append(curve_from_record(record))
                    continue
                found = record.get("format"), record.get("format_version")
                if found != (SNAPSHOT_FORMAT, SNAPSHOT_FORMAT_VERSION):
                    raise ValidationError(
                        f"{path!r} is not a {SNAPSHOT_FORMAT} file of format version "
                        f"{SNAPSHOT_FORMAT_VERSION}: line 1 has format {found[0]!r}, "
                        f"format_version {found[1]!r}"
                    )
    except OSError as exc:
        raise ValidationError(f"cannot read snapshots {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed snapshot record in {path!r}: {exc}") from None
    if not out:
        raise ValidationError(f"no snapshot records in {path}")
    return out
