#!/bin/sh
# Both front ends run one figure definition: `nuca_subctl figures
# fig06` through a fresh nuca_sweepd must print exactly the report
# lines of the fig06_harmonic_ipc binary at the same environment.
# Invoked by ctest as
#   sh figures_match_bench.sh <nuca_sweepd> <nuca_subctl> <fig06 binary>
# from the build directory.
set -eu

SWEEPD=$1
SUBCTL=$2
BENCH=$3
STATE=sweepd_match_state
SOCK=$STATE/sock

case "$(uname -s 2>/dev/null || echo unknown)" in
    Linux|Darwin) ;;
    *)
        echo "skip: unix-domain sockets unavailable on this platform"
        exit 77
        ;;
esac

rm -rf "$STATE"
mkdir -p "$STATE"
"$SWEEPD" --state "$STATE" --socket "$SOCK" --workers 2 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; wait "$DAEMON" 2>/dev/null || true' EXIT
"$SUBCTL" --socket "$SOCK" ping --retry 25

"$BENCH" > "$STATE/bench.out"
# The daemon run adds only its cache summary after the report.
"$SUBCTL" --socket "$SOCK" figures fig06 |
    sed -e '/jobs served from the result cache$/d' \
        -e '/^figures complete$/d' > "$STATE/subctl.out"
printf '\n' >> "$STATE/bench.out"
diff "$STATE/bench.out" "$STATE/subctl.out"

"$SUBCTL" --socket "$SOCK" shutdown
wait "$DAEMON"
trap - EXIT
echo "fig06: nuca_subctl report == bench binary report"
