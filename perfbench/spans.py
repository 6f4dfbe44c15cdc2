"""Timing spans around the calls into each contourdyn layer.

``instrument`` wraps the public functions of each layer and rebinds every
module-level name that refers to them, because the consumer modules import
them by name (``from .kernels import pv_all_nodes``).  Each call records a
span: name, start, end, parent span.  Spans stay in memory until the run
ends; then ``layer_metrics`` reduces them and ``Tracer.dump`` writes them out
as JSON lines.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

ROUND = "bench.round"
SETUP = "bench.setup"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: float = 0.0  # node count of a kernel call, iterations of a Picard solve

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, name: str) -> int:
        self.spans.append(Span(name, 0.0, 0.0, self._open[-1] if self._open else -1))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = perf_counter()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if info is not None:
                self.spans[index].info = float(info(args, result))
            return result

        return traced

    def dump(self, path: Path) -> None:
        """One JSON object per span, in start order; ``parent`` is a line index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _node_count(args, result) -> int:
    return args[0].grid.node_count


def _iterations(args, result) -> int:
    return getattr(result, "iterations", 0)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace every layer entry point for the duration of the block."""
    from contourdyn import analysis, cli, config, evolve, geometry, io, kernels, muskat, waterwaves

    functions = [
        ("kernels.pv_all_nodes", kernels.pv_all_nodes, _node_count),
        ("geometry.chord_arc_constant", geometry.chord_arc_constant, None),
        ("analysis.depth_rate", analysis.depth_rate, None),
        ("analysis.continuation_report", analysis.continuation_report, None),
        ("analysis.identity_defect", analysis.identity_defect, None),
        ("analysis.fit_double_exponential", analysis.fit_double_exponential, None),
        ("muskat.solve", muskat.solve_vorticity_equal, None),
        ("muskat.solve", muskat.solve_vorticity_general, _iterations),
        ("waterwaves.omega_rhs", waterwaves.omega_rhs, None),
        ("evolve.step", evolve.step, None),
        ("evolve.run", evolve.run, None),
        ("io.read_snapshots", io.read_snapshots, None),
        ("config.parse_config", config.parse_config, None),
        ("cli.initial_state", cli.initial_state, None),
    ]
    methods = [
        ("io.write", io.DiagnosticsCsvSink, "on_diagnostics"),
        ("io.write", io.SnapshotJsonlSink, "on_snapshot"),
    ]
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("contourdyn.")]
    restore: list[tuple[object, str, object]] = []
    try:
        for span_name, fn, info in functions:
            traced = tracer.wrap(span_name, fn, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, attr, value))
                        setattr(module, attr, traced)
        for span_name, cls, attr in methods:
            original = vars(cls)[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span_name, original))
        yield
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def _reduce(spans: list[Span]) -> tuple[list[float], list[int]]:
    """Self time of each span and the index of the root span it belongs to."""
    self_time = [s.duration for s in spans]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent >= 0:
            self_time[s.parent] -= s.duration
            root[i] = root[s.parent]
    return self_time, root


def layer_metrics(
    tracer: Tracer,
    ops: int,
    windows: list[tuple[float, float]],
    bytes_written: int,
    bytes_read: int,
    overhead_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced rounds and the traced set-up.

    ``ops``, ``bytes_written`` and ``bytes_read`` are totals over the traced
    rounds.  Seconds and bytes are reported per round, so they compare with
    ``wall_s``.  Counts per op take only the calls that start inside a round's
    ``windows`` entry (first to last op), which leaves out the diagnostics of
    the initial state; times per call take every call in the rounds.
    """
    spans = tracer.spans
    self_time, root = _reduce(spans)
    rounds = [i for i, s in enumerate(spans) if s.name == ROUND]
    in_round = [i for i in range(len(spans)) if spans[root[i]].name == ROUND]
    in_setup = [i for i in range(len(spans)) if spans[root[i]].name == SETUP]
    in_ops = [i for i in in_round if any(a <= spans[i].start <= b for a, b in windows)]

    def pick(name: str, where: list[int] = in_round) -> list[int]:
        return [i for i in where if spans[i].name == name]

    def self_sum(idx: list[int]) -> float:
        return sum(self_time[i] for i in idx)

    def per_call_ms(idx: list[int], own: bool = True) -> float:
        if not idx:
            return 0.0
        total = self_sum(idx) if own else sum(spans[i].duration for i in idx)
        return 1e3 * total / len(idx)

    n_rounds = len(rounds)
    pv = pick("kernels.pv_all_nodes")
    solves = pick("muskat.solve")
    picard = [i for i in solves if spans[i].info > 0]
    rate = pick("waterwaves.omega_rhs")
    nested_pv = [sum(1 for j in pv if spans[j].parent == i) for i in rate]
    pv_self = self_sum(pv)
    pairs = sum(spans[i].info ** 2 for i in pv)

    def per_op(name: str) -> float:
        return len(pick(name, in_ops)) / ops

    return {
        "kernels.pv_calls_per_op": (per_op("kernels.pv_all_nodes"), "count"),
        "kernels.pv_ms": (per_call_ms(pv), "ms/call"),
        "kernels.pv_self_s": (pv_self / n_rounds, "s"),
        "kernels.pair_rate": (pairs / pv_self / 1e6 if pv else 0.0, "Mpairs/s"),
        "muskat.solves_per_op": (per_op("muskat.solve"), "count"),
        "muskat.picard_iters_per_solve": (
            sum(spans[i].info for i in picard) / len(picard) if picard else 0.0,
            "count",
        ),
        "muskat.solve_self_s": (self_sum(solves) / n_rounds, "s"),
        "waterwaves.rate_calls_per_op": (per_op("waterwaves.omega_rhs"), "count"),
        "waterwaves.implicit_iters_per_call": (
            (sum(nested_pv) - 2 * len(rate)) / len(rate) if rate else 0.0,
            "count",
        ),
        "waterwaves.rate_self_s": (self_sum(rate) / n_rounds, "s"),
        "evolve.step_self_s": (self_sum(pick("evolve.step")) / n_rounds, "s"),
        "geometry.chord_arc_calls_per_op": (per_op("geometry.chord_arc_constant"), "count"),
        "geometry.chord_arc_ms": (per_call_ms(pick("geometry.chord_arc_constant")), "ms/call"),
        "analysis.depth_rate_self_ms": (per_call_ms(pick("analysis.depth_rate")), "ms/call"),
        "analysis.report_self_ms": (per_call_ms(pick("analysis.continuation_report")), "ms/call"),
        "analysis.identity_ms": (per_call_ms(pick("analysis.identity_defect"), own=False), "ms/call"),
        "analysis.fit_ms": (per_call_ms(pick("analysis.fit_double_exponential"), own=False), "ms"),
        "io.write_s": (self_sum(pick("io.write")) / n_rounds, "s"),
        "io.bytes_written": (bytes_written / n_rounds, "bytes"),
        "io.read_s": (self_sum(pick("io.read_snapshots")) / n_rounds, "s"),
        "io.bytes_read": (bytes_read / n_rounds, "bytes"),
        "config.parse_ms": (per_call_ms(pick("config.parse_config", in_setup), own=False), "ms"),
        "cli.initial_state_ms": (per_call_ms(pick("cli.initial_state", in_setup), own=False), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }
