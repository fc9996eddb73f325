#!/bin/sh
# Both front ends run one figure definition: `nuca_subctl figures
# <figure>` through a fresh nuca_sweepd must print exactly the report
# lines of the figure's bench binary at the same environment.
# Invoked by ctest as
#   sh figures_match_bench.sh <nuca_sweepd> <nuca_subctl> \
#       <figure> <binary> [<figure> <binary> ...]
# from the build directory.
set -eu

SWEEPD=$1
SUBCTL=$2
shift 2
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

while [ $# -ge 2 ]; do
    FIGURE=$1
    BENCH=$2
    shift 2
    "$BENCH" > "$STATE/$FIGURE.bench.out"
    # The daemon run adds only its cache summary after the report.
    "$SUBCTL" --socket "$SOCK" figures "$FIGURE" |
        sed -e '/jobs served from the result cache$/d' \
            -e '/^figures complete$/d' > "$STATE/$FIGURE.subctl.out"
    printf '\n' >> "$STATE/$FIGURE.bench.out"
    diff "$STATE/$FIGURE.bench.out" "$STATE/$FIGURE.subctl.out"
    echo "$FIGURE: nuca_subctl report == bench binary report"
done

"$SUBCTL" --socket "$SOCK" shutdown
wait "$DAEMON"
trap - EXIT
echo "figures match: every nuca_subctl report == its bench binary report"
