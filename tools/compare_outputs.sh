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
exit 1
