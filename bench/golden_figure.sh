#!/bin/sh
# One registry figure against its recorded outputs: `nuca_figures
# <name>` in a clean environment must reproduce, byte for byte, every
# file in the golden directory: stdout.txt, the REPRO_JSON document
# <name>.json and, when the variables name a REPRO_TRACE, the trace
# files. Only PATH, REPRO_JSON and the VAR=value arguments reach the
# binary, so the window, the mix count and REPRO_JOBS (which the
# report header prints) are the test's.
# Invoked by ctest as
#   sh golden_figure.sh <nuca_figures> <golden dir> <name> [VAR=value...]
# from the build directory. To re-record after an intended change,
# run it and copy the run directory bench_golden_<name>/ (all but
# stderr.txt) over the golden directory.
set -eu

BIN=$1
GOLDEN=$2
NAME=$3
shift 3
OUT=bench_golden_$NAME

rm -rf "$OUT"
mkdir -p "$OUT"
(cd "$OUT" && env -i PATH="$PATH" REPRO_JSON="$NAME.json" "$@" \
    "$BIN" "$NAME" > stdout.txt 2> stderr.txt)
rm "$OUT/stderr.txt"
# Same file names, same bytes.
diff -r "$GOLDEN" "$OUT"
if ls "$OUT" | grep -q '^trace'; then
    echo "$NAME golden: stdout, document and traces match"
else
    echo "$NAME golden: stdout and document match"
fi
