#!/bin/sh
# Both traces of one sweep: `nuca_figures fig06` (window from the
# environment; REPRO_MIXES=1 gives three jobs) with REPRO_PERFETTO and
# REPRO_TRACE set. The host trace must validate, and the three per-job
# JSONL files must export as one valid trace of three sim processes.
# Invoked by ctest as
#   sh perfetto_sweep.sh <nuca_figures> <trace_report>
# from the build directory.
set -eu

FIGURES=$1
REPORT=$2
DIR=perfetto_sweep
rm -rf "$DIR"
mkdir "$DIR"
REPRO_PERFETTO=$DIR/host.trace.json REPRO_TRACE=$DIR/trace.jsonl \
    "$FIGURES" fig06 > "$DIR/stdout.txt"
"$REPORT" --check-trace "$DIR/host.trace.json"

set -- "$DIR"/trace.*.jsonl
[ "$#" -eq 3 ] || { echo "expected 3 per-job traces, found: $*"; exit 1; }
"$REPORT" --export-trace "$DIR/sim.trace.json" "$@"
"$REPORT" --check-trace "$DIR/sim.trace.json"
names=$(grep -o '"sim:trace\.[^"]*"' "$DIR/sim.trace.json" | sort -u)
[ "$(echo "$names" | wc -l)" -eq 3 ] ||
    { echo "expected 3 sim processes in the export: $names"; exit 1; }
echo "perfetto sweep: host trace valid, 3 sim processes exported"
