"""Batch front end: run simulations and single-shot analyses reproducibly.

Subcommands:

* ``run``      full simulation from a configuration file
* ``analyze``  diagnostics for one state read back from a snapshot file
* ``identity`` flux-identity defect sweep over grid refinement
* ``fit``      double-exponential lower-bound fit of a diagnostics CSV

The tool is unconditionally deterministic: it uses no random state and stamps
every output with the configuration hash, so identical configurations produce
identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import __version__, muskat
from .analysis import continuation_report, fit_double_exponential, identity_defect
from .config import ParsedConfig, parse_config, with_grid
from .errors import ConfigError, ContourError, ValidationError
from .evolve import SimState, closure_state, run as run_simulation
from .geometry import Model
from .io import read_diagnostics, read_snapshots, run_sinks, stamp, write_identity, write_summary
from .kernels import VorticityStrength
from .profiles import build_initial

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def initial_state(parsed: ParsedConfig) -> SimState:
    """The t = 0 run state: evolve.closure_state's checks and closure, with its first k1.

    A wave state keeps the profile's strength, a Muskat state takes the
    closure's; an equal-viscosity state alone carries no k1 (no set-up pass).
    """
    curve, omega = build_initial(parsed.initial, parsed.sim.grid)
    return closure_state(curve, 0.0, parsed.sim, omega)


def _cmd_run(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config)
    state = initial_state(parsed)  # before the directory: a failed check or closure leaves none
    with run_sinks(args.out, parsed.sha256, __version__) as sinks:
        summary = run_simulation(parsed.sim, state, sinks)
    print(json.dumps(write_summary(args.out, summary, parsed.sha256, __version__)))
    return EXIT_OK if summary.status == "completed" else EXIT_RUNTIME


def _cmd_analyze(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config)
    snapshots = read_snapshots(args.infile)
    if not -len(snapshots) <= args.index < len(snapshots):
        raise ValidationError(f"no snapshot {args.index} among the {len(snapshots)} stored")
    t, curve = snapshots[args.index]
    if curve.grid != parsed.sim.grid:
        raise ValidationError(f"snapshot grid {curve.grid} is not the config's {parsed.sim.grid}")
    if parsed.sim.model is Model.WATER_WAVES:
        omega = VorticityStrength(curve.grid, np.zeros(curve.grid.node_count))
        omega_source = "zero (sheet strength is prognostic and not stored in snapshots)"
    else:
        omega = muskat.solve_vorticity(curve, parsed.sim.params)[0]
        omega_source = "model closure"
    report = continuation_report(curve, omega, parsed.sim.params, t=t)
    value_i, value_it, defect = identity_defect(curve)
    record = dataclasses.asdict(report)
    record.update(identity_I=value_i, identity_Itilde=value_it, identity_defect=defect,
                  omega_source=omega_source)
    print(json.dumps(stamp(record, parsed.sha256, __version__), indent=2))
    return EXIT_OK


def _cmd_identity(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config)
    base_n = parsed.sim.grid.node_count
    rows = []
    # N/2, N/4 and N/8, each rounded down to an even count, while at least 64
    others = [n for n in (base_n // k // 2 * 2 for k in (2, 4, 8)) if n >= 64]
    for n in (base_n, *others):
        try:
            refined = with_grid(parsed, n)
            curve, _ = build_initial(refined.initial, refined.sim.grid)
        except ValidationError:
            if n == base_n:  # the config's own grid: exit 2
                raise
            break  # the first other grid that the profile's window does not fit
        rows.append((n, identity_defect(curve)[2]))
    rows.sort()
    for n, defect in rows:
        print(f"{n:8d}  {defect:.6e}")
    if args.out is not None:
        write_identity(args.out, rows, parsed.sha256, __version__)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    data = read_diagnostics(args.infile)
    missing = [name for name in ("t", "m") if name not in data]
    if missing:
        raise ValidationError(f"no column {', '.join(missing)} in {args.infile}")
    fit = fit_double_exponential(data["t"], data["m"])
    record = dataclasses.asdict(fit)
    record["version"] = __version__
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contourdyn",
        description="Contour dynamics for confined two-phase interfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")

    p_run = sub.add_parser("run", help="run a full simulation", parents=[common])
    p_run.add_argument("--config", required=True, help="configuration file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="diagnostics for one stored snapshot", parents=[common])
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--in", dest="infile", required=True, help="snapshots.jsonl path")
    p_an.add_argument("--index", type=int, default=-1, help="snapshot index (default: last)")
    p_an.set_defaults(func=_cmd_analyze)

    p_id = sub.add_parser(
        "identity", help="flux-identity defect refinement sweep", parents=[common]
    )
    p_id.add_argument("--config", required=True)
    p_id.add_argument("--out", default=None, help="optional output directory")
    p_id.set_defaults(func=_cmd_identity)

    p_fit = sub.add_parser(
        "fit", help="double-exponential bound fit of a diagnostics CSV", parents=[common]
    )
    p_fit.add_argument("--in", dest="infile", required=True, help="diagnostics.csv path")
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        record = {"error": type(exc).__name__, "detail": str(exc)}
        if hasattr(exc, "line"):
            record["line"] = exc.line
        print(json.dumps(record), file=sys.stderr)
        return EXIT_CONFIG
    except ContourError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
