#!/usr/bin/env bash
# Compare the outputs of two checkouts of contourdyn, byte for byte.
#
#   tools/compare_outputs.sh PARENT CHANGE OUTDIR [CONFIG...]
#
# PARENT and CHANGE are checkouts (directories holding src/contourdyn).  For
# every CONFIG (default: CHANGE/configs/*.cfg) each checkout runs, from the
# same config file:
#
#   run, analyze --index 0, analyze --index -1, identity --out, fit
#
# writing files, stdout, stderr and exit codes under OUTDIR/parent/<name> and
# OUTDIR/change/<name>, where <name> is the config's file name without .cfg.
# OUTDIR must lie outside both checkouts; it is created if missing, and the
# two trees in it are replaced.  The script then runs diff -r on the trees
# and exits 1 on any difference, 0 when every output is byte-identical.
# When they differ it also prints, per config, each side's status and
# steps_completed from summary.json, and the largest |change| of every
# diagnostics.csv column over the rows both sides wrote; for alpha_star also
# that of |alpha_star|, since the argmin can flip between mirror minima.
# Set PYTHON to choose the interpreter (default python3).

set -u

if [ "$#" -lt 3 ]; then
    echo "usage: $0 PARENT CHANGE OUTDIR [CONFIG...]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd -P) || exit 2
change=$(cd "$2" && pwd -P) || exit 2
outdir=$(realpath -m "$3") || exit 2
shift 3
for root in "$parent" "$change"; do
    if [ ! -d "$root/src/contourdyn" ]; then
        echo "$root holds no src/contourdyn" >&2
        exit 2
    fi
    case "$outdir/" in
        "$root"/*)
            echo "OUTDIR $outdir lies inside the checkout $root" >&2
            exit 2
            ;;
    esac
done
mkdir -p "$outdir" || exit 2
if [ "$#" -eq 0 ]; then
    set -- "$change"/configs/*.cfg
fi
configs=()
for cfg in "$@"; do
    configs+=("$(cd "$(dirname "$cfg")" && pwd)/$(basename "$cfg")") || exit 2
done
python=${PYTHON:-python3}

# cli SIDE DIR NAME ARGS...: run one subcommand of SIDE's checkout from DIR,
# keeping its stdout, stderr and exit code as NAME.out, NAME.err and NAME.code.
cli() {
    local root=$1 dir=$2 name=$3
    shift 3
    (cd "$dir" && PYTHONPATH="$root/src" "$python" -m contourdyn "$@" \
        >"$name.out" 2>"$name.err"; echo $? >"$name.code")
}

for side in parent change; do
    root=$parent
    [ "$side" = change ] && root=$change
    rm -rf "${outdir:?}/$side"
    for cfg in "${configs[@]}"; do
        dir=$outdir/$side/$(basename "$cfg" .cfg)
        mkdir -p "$dir"
        cli "$root" "$dir" run run --config "$cfg" --out run
        cli "$root" "$dir" analyze_first analyze --config "$cfg" --in run/snapshots.jsonl --index 0
        cli "$root" "$dir" analyze_last analyze --config "$cfg" --in run/snapshots.jsonl --index -1
        cli "$root" "$dir" identity identity --config "$cfg" --out identity
        cli "$root" "$dir" fit fit --in run/diagnostics.csv
    done
done

if diff -r "$outdir/parent" "$outdir/change"; then
    echo "byte-identical: ${#configs[@]} config(s), $outdir/parent and $outdir/change"
    exit 0
fi
echo "outputs differ: $outdir/parent and $outdir/change" >&2
"$python" - "$outdir" "${configs[@]}" <<'EOF_REPORT'
import csv
import json
import math
import sys
from pathlib import Path

outdir = Path(sys.argv[1])


def summary(run):
    try:
        s = json.loads((run / "summary.json").read_text())
        return f"{s['status']}, {s['steps_completed']} steps"
    except (OSError, ValueError, KeyError):
        return "no summary.json"


def rows(run):
    try:
        lines = (run / "diagnostics.csv").read_text().splitlines()
    except OSError:
        return [], []
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    return (table[0], [[float(v) for v in row] for row in table[1:]]) if table else ([], [])


def largest(pairs):
    deltas = [abs(a - b) for a, b in pairs]
    return math.nan if any(math.isnan(d) for d in deltas) else max(deltas, default=0.0)


for cfg in sys.argv[2:]:
    name = Path(cfg).stem
    runs = [outdir / side / name / "run" for side in ("parent", "change")]
    print(f"{name}: parent {summary(runs[0])}; change {summary(runs[1])}")
    (head, old), (new_head, new) = rows(runs[0]), rows(runs[1])
    if not head or head != new_head:
        print("  diagnostics.csv: missing, or the columns differ")
        continue
    both = list(zip(old, new))
    print(f"  largest |change| over the {len(both)} rows both sides wrote:")
    for k, column in enumerate(head):
        line = f"    {column:<14} {largest((a[k], b[k]) for a, b in both):.3g}"
        if column == "alpha_star":
            line += f"  (|alpha_star|: {largest((abs(a[k]), abs(b[k])) for a, b in both):.3g})"
        print(line)
EOF_REPORT
exit 1
