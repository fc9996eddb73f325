#!/bin/sh
# Both front ends run one figure definition: `nuca_subctl figures
# <figure>` through a fresh nuca_sweepd must print exactly the report
# lines of `nuca_figures <figure>` at the same environment.
# Invoked by ctest as
#   sh figures_match_bench.sh <nuca_sweepd> <nuca_subctl> \
#       <nuca_figures> <figure> [<figure> ...]
# from the build directory.
set -eu

SWEEPD=$1
SUBCTL=$2
FIGURES=$3
shift 3
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

for FIGURE in "$@"; do
    "$FIGURES" "$FIGURE" > "$STATE/$FIGURE.bench.out"
    # The daemon run adds only its cache summary after the report.
    "$SUBCTL" --socket "$SOCK" figures "$FIGURE" |
        sed -e '/jobs served from the result cache$/d' \
            -e '/^figures complete$/d' > "$STATE/$FIGURE.subctl.out"
    printf '\n' >> "$STATE/$FIGURE.bench.out"
    diff "$STATE/$FIGURE.bench.out" "$STATE/$FIGURE.subctl.out"
    echo "$FIGURE: nuca_subctl report == nuca_figures report"
done

"$SUBCTL" --socket "$SOCK" shutdown
wait "$DAEMON"
trap - EXIT
echo "figures match: every nuca_subctl report == its nuca_figures report"
