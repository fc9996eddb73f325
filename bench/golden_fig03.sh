#!/bin/sh
# Figure 3 against its recorded outputs: `nuca_figures fig03` at 2 M
# instructions per app must reproduce, byte for byte, the stdout, the
# REPRO_JSON document and the five REPRO_TRACE files under
# tests/data/fig03/. At 2 M instructions mcf, parser and ammp still
# lose misses at every way up to 16, so a wrong count at any stack
# depth changes the curves.
# Invoked by ctest as
#   sh golden_fig03.sh <nuca_figures> <golden dir>
# from the build directory. To re-record after an intended change,
# run it and copy the run directory's files (all but stderr.txt) over
# the golden ones.
set -eu

BIN=$1
GOLDEN=$2
OUT=bench_golden_fig03

rm -rf "$OUT"
mkdir -p "$OUT"
# Only the variables named here reach the binary.
(cd "$OUT" && env -i PATH="$PATH" REPRO_FIG3_INSTS=2000000 REPRO_JOBS=2 \
    REPRO_JSON=fig03.json REPRO_TRACE=trace.jsonl \
    REPRO_TRACE_PERIOD=300000 "$BIN" fig03 > stdout.txt 2> stderr.txt)
rm "$OUT/stderr.txt"
# Same file names, same bytes.
diff -r "$GOLDEN" "$OUT"
echo "fig03 golden: stdout, document and traces match"
