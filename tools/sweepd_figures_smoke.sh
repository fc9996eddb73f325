#!/bin/sh
# Warm-cache smoke for the sweep daemon: run `figures fig03`,
# `figures fig06` and `figures abl_epoch_sweep` (whose configs travel
# as overrides) twice each, stopping and restarting the daemon on the
# same state directory between the two passes, and require every
# second pass to be served entirely from the cross-run result cache
# (which the restarted daemon rebuilds from its journal).
# Invoked by ctest as
#   sh sweepd_figures_smoke.sh <nuca_sweepd> <nuca_subctl>
# from the build directory (the state dir stays relative so the
# socket path fits sun_path).
set -eu

SWEEPD=$1
SUBCTL=$2
STATE=sweepd_smoke_state
SOCK=$STATE/sock

case "$(uname -s 2>/dev/null || echo unknown)" in
    Linux|Darwin) ;;
    *)
        echo "skip: unix-domain sockets unavailable on this platform"
        exit 77
        ;;
esac

rm -rf "$STATE"

DAEMON=
trap '[ -z "$DAEMON" ] || { kill "$DAEMON"; wait "$DAEMON"; } 2>/dev/null || true' EXIT

start_daemon() {
    "$SWEEPD" --state "$STATE" --socket "$SOCK" --workers 2 &
    DAEMON=$!
    "$SUBCTL" --socket "$SOCK" ping --retry 25
}

stop_daemon() {
    "$SUBCTL" --socket "$SOCK" shutdown
    wait "$DAEMON"
    DAEMON=
}

# Cold pass populates the cache; the restarted daemon's warm pass
# must not execute anything.
for figure in fig03 fig06 abl_epoch_sweep; do
    start_daemon
    "$SUBCTL" --socket "$SOCK" figures "$figure"
    stop_daemon
    start_daemon
    warm=$("$SUBCTL" --socket "$SOCK" figures "$figure")
    stop_daemon
    echo "$warm"
    echo "$warm" | grep -q "^all [0-9]* jobs served from the result cache$"
done

trap - EXIT
echo "figures smoke: every warm pass served from the result cache"
