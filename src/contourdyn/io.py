"""Every file layout the tool writes, each defined once, and the readers of two.

``diagnostics.csv`` and ``identity.csv`` start with a stamped header (the
format, the tool version and the SHA-256 of the canonical configuration) and
a column line; the diagnostics columns are the fields of DepthDiagnostics.
``snapshots.jsonl`` starts with a JSON header naming SNAPSHOT_FORMAT and its
version, then holds one curve_record per snapshot.  ``summary.json`` holds a
RunSummary's fields, then the stamp (config_sha256, version) that also ends
the analyze record.  An OSError opening a file is a ValidationError.
Identical configurations give byte-identical files: floats are shortest
round-trip repr, and snapshot samples are base64 of their float64 bytes.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path
from typing import IO

import numpy as np

from .analysis import DepthDiagnostics
from .errors import ValidationError
from .geometry import Grid, InterfaceCurve
from .kernels import VorticityStrength

CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(DepthDiagnostics))

DIAGNOSTICS_FORMAT = "contourdyn.diagnostics"
IDENTITY_FORMAT = "contourdyn.identity"
SNAPSHOT_FORMAT = "contourdyn.snapshots"
SNAPSHOT_FORMAT_VERSION = 2


def _open_output(outdir: str, name: str) -> IO[str]:
    """``outdir``/``name`` opened for writing, the directory made if missing."""
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        return open(Path(outdir) / name, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {name} under {outdir!r}: {exc}") from None


def stamp(record: dict, config_sha256: str, version: str) -> dict:
    """``record`` followed by the keys config_sha256 and version."""
    return {**record, "config_sha256": config_sha256, "version": version}


def _write_table_header(fh: IO[str], fmt: str, columns, config_sha256: str, version: str) -> None:
    """The two stamp lines '# <format> v<version>' and '# config_sha256=...', then the columns."""
    fh.write(f"# {fmt} v{version}\n")
    fh.write(f"# config_sha256={config_sha256}\n")
    fh.write(",".join(columns) + "\n")


class DiagnosticsCsvSink:
    """Streams DepthDiagnostics rows, one column per field."""

    def __init__(self, fh: IO[str], config_sha256: str, version: str):
        self._fh = fh
        _write_table_header(fh, DIAGNOSTICS_FORMAT, CSV_COLUMNS, config_sha256, version)

    def on_diagnostics(self, diag: DepthDiagnostics) -> None:
        row = ",".join(repr(float(getattr(diag, name))) for name in CSV_COLUMNS)
        self._fh.write(row + "\n")

    def on_snapshot(self, t: float, curve: InterfaceCurve, omega: VorticityStrength) -> None:
        pass


def curve_record(curve: InterfaceCurve, t: float) -> dict:
    """Snapshot record {t, half_width, z1, z2}: JSON numbers, and base64 of float64 LE bytes."""
    z1, z2 = (
        base64.b64encode(np.asarray(z, "<f8").tobytes()).decode() for z in (curve.z1, curve.z2)
    )
    return {"t": float(t), "half_width": float(curve.grid.half_width), "z1": z1, "z2": z2}


def curve_from_record(record: dict) -> tuple[float, InterfaceCurve]:
    """Rebuild (t, curve) from a snapshot record written by curve_record."""
    missing = [key for key in ("t", "half_width", "z1", "z2") if key not in record]
    if missing:
        raise ValidationError(f"snapshot record lacks {', '.join(missing)}")
    try:
        t, half_width = float(record["t"]), float(record["half_width"])
        z1, z2 = (
            np.frombuffer(base64.b64decode(record[k], validate=True), "<f8") for k in ("z1", "z2")
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"snapshot record is not numeric: {exc}") from None
    if not np.isfinite(t):
        raise ValidationError(f"snapshot time must be finite, got {t}")
    return t, InterfaceCurve(Grid(half_width, z1.size), z1, z2)


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


@contextmanager
def run_sinks(outdir: str, config_sha256: str, version: str):
    """A run's sinks, writing diagnostics.csv and snapshots.jsonl under ``outdir``."""
    with (_open_output(outdir, "diagnostics.csv") as diag,
          _open_output(outdir, "snapshots.jsonl") as snap):
        stamped = config_sha256, version
        yield DiagnosticsCsvSink(diag, *stamped), SnapshotJsonlSink(snap, *stamped)


def write_summary(outdir: str, summary, config_sha256: str, version: str) -> dict:
    """Write a RunSummary's stamped record to ``outdir``/summary.json, and return it."""
    record = stamp(dataclasses.asdict(summary), config_sha256, version)
    with _open_output(outdir, "summary.json") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    return record


def write_identity(outdir: str, rows: list[tuple[int, float]], config_sha256: str, version: str):
    """Write a refinement sweep's (N, defect) rows to ``outdir``/identity.csv."""
    with _open_output(outdir, "identity.csv") as fh:
        _write_table_header(fh, IDENTITY_FORMAT, ("N", "defect"), config_sha256, version)
        for n, defect in rows:
            fh.write(f"{n},{defect!r}\n")


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
