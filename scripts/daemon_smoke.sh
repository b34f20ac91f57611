#!/usr/bin/env bash
# End-to-end smoke of the routedbd serving path, using only the shipped binaries:
#
#   1. routedb update --init         build the frozen image + state dir from a map
#   2. routedbd --unix ... &         serve it on a unix-domain datagram socket
#   3. routedb query                 resolve through the daemon, assert the route
#   3b. upgrade path                 a state dir aged to manifest version 2 is
#                                    refused on SIGHUP (old map keeps serving);
#                                    `routedb update --init` heals it
#   4. edit a map file
#   5a. SIGHUP rollover              daemon re-reads its --map files in process
#   5b. watch rollover               external `routedb update` refreezes the image;
#                                    the daemon's file poll picks the rename up
#   6. routedb query                 assert the NEW route, under the SAME daemon pid
#   7. SIGTERM                       clean exit (status 0) with stats on stderr,
#                                    counting exactly the one failed reload
#
# Usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]
# Exits nonzero on the first broken step.

set -euo pipefail

ROUTEDB=${1:?usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]}
ROUTEDBD=${2:?usage: daemon_smoke.sh <routedb-bin> <routedbd-bin> [workdir]}
DIR=${3:-$(mktemp -d)}
IMAGE="$DIR/routes.pari"
SOCK="$DIR/routedbd.sock"
LOG="$DIR/daemon.log"
DAEMON_PID=""

say() { printf 'daemon_smoke: %s\n' "$*"; }
fail() { say "FAIL: $*"; exit 1; }

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -TERM "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

# The query helper: one destination, output is "host<TAB>via<TAB>route".
route_of() {
  "$ROUTEDB" query --socket "$SOCK" --timeout 2000 "$1" | awk -F'\t' '{print $3}'
}

expect_route() {
  local host=$1 want=$2 got
  got=$(route_of "$host") || fail "query for $host failed"
  [[ "$got" == "$want" ]] || fail "route for $host: got '$got', want '$want'"
  say "route for $host = $got"
}

# --- 1. build the image from a three-file map (leafc reachable via far) ---
mkdir -p "$DIR"
printf 'hub\tmid(100), far(400)\n' > "$DIR/core.map"
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map"
say "image built: $IMAGE"

# --- 2. start the daemon; --ready-fd replaces sleep-and-hope ---
READY="$DIR/ready"
"$ROUTEDBD" --image "$IMAGE" --unix "$SOCK" \
    --map "$DIR/core.map" --map "$DIR/mid.map" --map "$DIR/far.map" \
    --watch-interval 50 --ready-fd 3 3>"$READY" 2>"$LOG" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$READY" ]] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.05
done
[[ -s "$READY" ]] || fail "daemon never signalled readiness"
say "daemon up (pid $DAEMON_PID)"

# --- 3. resolve through the daemon ---
expect_route leafc 'far!leafc!%s'
expect_route leafa 'mid!leafa!%s'

# --- 3b. upgrade path: age the served state dir's manifest to version 2 (the
# FNV-1a format), edit a map and HUP.  The daemon must refuse the state with the
# command that rebuilds it and keep serving the old generation. ---
MANIFEST="$IMAGE.state/manifest"
sed -i '1s/^pathalias-state [0-9]*$/pathalias-state 2/' "$MANIFEST"
[[ "$(head -n 1 "$MANIFEST")" == 'pathalias-state 2' ]] || fail "could not age the manifest"
printf 'mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n' > "$DIR/mid.map"
printf 'far\thub(400)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  grep -q 'reload (SIGHUP) failed' "$LOG" && break
  sleep 0.05
done
grep -q 'reload (SIGHUP) failed.*routedb update --init' "$LOG" \
    || fail "daemon did not refuse the version-2 state with the fix: $(cat "$LOG")"
kill -0 "$DAEMON_PID" || fail "daemon died on an old-format state dir"
expect_route leafc 'far!leafc!%s'   # the old generation keeps serving
say "version-2 state refused on SIGHUP (old map still serving)"

# The fix the refusal names: re-initialize from the (restored) map files.  The
# SIGHUP below then loads the rebuilt state and applies the edit.
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update --init --local hub "$IMAGE" \
    "$DIR/core.map" "$DIR/mid.map" "$DIR/far.map"
[[ "$(head -n 1 "$MANIFEST")" == 'pathalias-state 3' ]] || fail "init left an old manifest"
say "state re-initialized"

# --- 4+5a. re-home leafc onto mid, SIGHUP, expect the new route ---
printf 'mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n' > "$DIR/mid.map"
printf 'far\thub(400)\n' > "$DIR/far.map"
kill -HUP "$DAEMON_PID"
for _ in $(seq 1 100); do
  [[ "$(route_of leafc)" == 'mid!leafc!%s' ]] && break
  sleep 0.05
done
expect_route leafc 'mid!leafc!%s'
say "SIGHUP rollover applied"

# --- 5b. external update + file-watch rollover (leafc back onto far) ---
printf 'mid\thub(100), leafa(50), leafb(60)\n' > "$DIR/mid.map"
printf 'far\thub(400), leafc(10)\nleafc\tfar(10)\n' > "$DIR/far.map"
"$ROUTEDB" update "$IMAGE" "$DIR/mid.map" "$DIR/far.map"
for _ in $(seq 1 100); do
  [[ "$(route_of leafc)" == 'far!leafc!%s' ]] && break
  sleep 0.05
done
expect_route leafc 'far!leafc!%s'
say "file-watch rollover applied"

# Queries kept flowing the whole time against one daemon process.
kill -0 "$DAEMON_PID" || fail "daemon restarted somewhere along the way"

# --- 7. clean shutdown ---
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || fail "daemon exited nonzero on SIGTERM"
DAEMON_PID=""
say "clean SIGTERM exit"
# One failed reload (3b) and no other: the rebuilt state healed the HUP path.
grep -q 'exiting;.* reload_errors=1 ' "$LOG" \
    || fail "expected exactly one reload error: $(tail -n 1 "$LOG")"
say "reload_errors=1 (the refused version-2 state only)"
say "PASS"
