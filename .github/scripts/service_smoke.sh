#!/usr/bin/env bash
# One parameterized service smoke: start a ccra_serve daemon on a fresh
# Unix socket, drive a client burst through it, optionally ask for STATS,
# then SIGTERM it and require a clean drain (exit 0). CI and check.sh both
# call this instead of carrying their own copy of the boilerplate; the
# ASan legs get their zero-leak gate for free from the daemon's exit-time
# leak check.
#
# Usage: service_smoke.sh --build-dir=DIR [options]
#   --build-dir=DIR      build tree holding tools/ccra_serve + ccra_client
#   --requests=N         burst size (default 200)
#   --clients=N          concurrent burst clients (default 4)
#   --serve-args="..."   extra daemon flags (e.g. --cache-bytes=0)
#   --client-args="..."  extra burst flags (e.g. --zipf, --wire=v2)
#   --stats              fetch STATS after the burst (sanity + coverage)

set -euo pipefail

BUILD_DIR=""
REQUESTS=200
CLIENTS=4
SERVE_ARGS=""
CLIENT_ARGS=""
STATS=0

for Arg in "$@"; do
  case "$Arg" in
    --build-dir=*) BUILD_DIR="${Arg#*=}" ;;
    --requests=*) REQUESTS="${Arg#*=}" ;;
    --clients=*) CLIENTS="${Arg#*=}" ;;
    --serve-args=*) SERVE_ARGS="${Arg#*=}" ;;
    --client-args=*) CLIENT_ARGS="${Arg#*=}" ;;
    --stats) STATS=1 ;;
    *) echo "service_smoke.sh: unknown argument: $Arg" >&2; exit 2 ;;
  esac
done

[ -n "$BUILD_DIR" ] || { echo "service_smoke.sh: --build-dir is required" >&2; exit 2; }
SERVE="$BUILD_DIR/tools/ccra_serve"
CLIENT="$BUILD_DIR/tools/ccra_client"
[ -x "$SERVE" ] && [ -x "$CLIENT" ] || {
  echo "service_smoke.sh: $SERVE / $CLIENT not built" >&2; exit 2; }

SOCK="$(mktemp -u /tmp/ccra-smoke-XXXXXX.sock)"

# shellcheck disable=SC2086  # SERVE_ARGS is intentionally word-split
"$SERVE" --unix="$SOCK" $SERVE_ARGS &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

for _ in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "service_smoke.sh: daemon never bound $SOCK" >&2; exit 1; }

# The burst exits non-zero unless every valid response is bit-identical
# to in-process allocation (and, with --zipf, unless the cache hit).
# shellcheck disable=SC2086
"$CLIENT" --unix="$SOCK" burst --requests="$REQUESTS" \
    --clients="$CLIENTS" $CLIENT_ARGS

if [ "$STATS" = 1 ]; then
  "$CLIENT" --unix="$SOCK" stats > /dev/null
fi

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"   # exit 0 == clean drain
trap - EXIT
rm -f "$SOCK"
echo "service_smoke.sh: clean drain"
