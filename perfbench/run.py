"""contourdyn benchmark: one workload per process, from the repository root.

    python3 perfbench/run.py --workload relax_n2048 --seed 0 --seconds 20 --trace 0

Repeats whole rounds of the workload until ``--seconds`` have passed, checks
every round's outputs, and prints one line per metric and per check.  The
last line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the time is split between untraced and traced rounds and the
metrics are the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import program
import spans

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload: str, config_path: Path) -> float:
    """Process start to end of set-up, in a fresh interpreter (median of several)."""
    samples = []
    for _ in range(SETUP_PROBES):
        launched = perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(config_path)],
            check=True,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - launched)
    return statistics.median(samples)


def _rounds(run_round, seconds: float, tracer: spans.Tracer | None = None) -> list:
    """Whole rounds while the next one should end within ``seconds`` (at least one)."""
    results = []
    start = perf_counter()
    while not results or perf_counter() - start + statistics.median(r.wall for r in results) <= seconds:
        if tracer is None:
            results.append(run_round())
        else:
            with tracer.span(spans.ROUND):
                results.append(run_round())
    return results


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    program.require_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    name = args.workload
    workdir = program.ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.generate(name, args.seed, workdir)
        setup_s = None if args.trace else _setup_seconds(name, inputs.config_path)
        parsed, state = workloads.setup(name, inputs.config_path)
        run_round = functools.partial(workloads.run_round, name, parsed, state, inputs, workdir)
        budget = args.seconds / 2.0 if args.trace else args.seconds
        plain = _rounds(run_round, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                with tracer.span(spans.SETUP):
                    workloads.setup(name, inputs.config_path)
                traced = _rounds(run_round, budget, tracer)
            spans_path = workdir.parent / f"spans_{name}_seed{args.seed}.jsonl"
            tracer.dump(spans_path)
        results = plain + traced
        by_name: dict[str, list] = {}
        for result in results:
            for check in workloads.check_round(name, parsed, inputs, result):
                by_name.setdefault(check.name, []).append(check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run or span file is in it

    attempted = sum(r.planned for r in results)
    failed = sum(r.planned - r.done for r in results)
    verdicts = [checks.worst(group) for group in by_name.values()]
    if args.trace:
        overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
        metrics = spans.layer_metrics(
            tracer,
            ops=sum(r.done for r in traced),
            windows=[r.window for r in traced],
            bytes_written=sum(r.bytes_written for r in traced),
            bytes_read=sum(r.bytes_read for r in traced),
            overhead_s=overhead,
        )
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.wall for r in plain), "s"),
            "op_ms_p50": (statistics.median(ms for r in plain for ms in r.op_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(
        f"workload {name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced rounds, "
        f"{attempted} ops attempted, {failed} failed"
    )
    if args.trace:
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(program.ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    for verdict in verdicts:
        print(verdict.line())
    record = {
        "correct": all(v.ok for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
