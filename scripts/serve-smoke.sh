#!/bin/sh
# serve-smoke: boot numaiod on an ephemeral port, exercise the API with
# curl, and shut it down gracefully with SIGTERM. Fails if any endpoint
# misbehaves or the daemon does not drain cleanly.
#
# Cleanup is a single trap'd function so the daemon and the scratch
# directory are reclaimed on every exit path, including ^C and a CI
# timeout's SIGTERM; both startup waits are bounded so a wedged daemon
# fails the script instead of hanging it.
#
# SERVE_SMOKE_PORT overrides the listen port (default 0 = kernel-assigned
# ephemeral), so this smoke and fleet-smoke.sh can run side by side — or be
# pinned apart explicitly — without fixed-port collisions.
set -eu

. "$(dirname "$0")/smoke-lib.sh"

GO=${GO:-go}
port=${SERVE_SMOKE_PORT:-0}
pid=""
workdir=$(mktemp -d)

cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT
trap 'exit 129' INT
trap 'exit 143' TERM

fail() {
    echo "serve-smoke: $1" >&2
    exit 1
}

echo "serve-smoke: building numaiod and numaioload"
"$GO" build -o "$workdir/numaiod" ./cmd/numaiod
"$GO" build -o "$workdir/numaioload" ./cmd/numaioload

"$workdir/numaiod" -addr "127.0.0.1:$port" -quiet >"$workdir/out.log" 2>"$workdir/err.log" &
pid=$!

# Wait for the listen banner, bounded (smoke-lib.sh).
base=$(wait_banner "$workdir/out.log" "$pid")
if [ -z "$base" ]; then
    echo "serve-smoke: daemon never announced its address" >&2
    cat "$workdir/err.log" >&2
    exit 1
fi
echo "serve-smoke: daemon at $base"

# Wait until it actually serves: the banner precedes readiness.
wait_http "$base/healthz" || fail "daemon never became healthy at $base/healthz"

curl -fsS -o "$workdir/resp" "$base/healthz"
grep -q ok "$workdir/resp" || fail "/healthz not ok"

char='{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}}'
curl -fsS -o "$workdir/resp" -X POST -d "$char" "$base/v1/characterize"
grep -q '"cached": false' "$workdir/resp" || fail "first characterize was not a cache miss"
curl -fsS -o "$workdir/resp" -X POST -d "$char" "$base/v1/characterize"
grep -q '"cached": true' "$workdir/resp" || fail "second characterize was not served from cache"
grep -q '"stale"' "$workdir/resp" && fail "healthy characterize marked stale"

predict='{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
          "target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}'
curl -fsS -o "$workdir/resp" -X POST -d "$predict" "$base/v1/predict"
grep -q '"predicted_bps"' "$workdir/resp" || fail "/v1/predict returned no prediction"

# Serving fast lane: a short closed-loop load run must complete with a
# non-zero RPS, and the repeated identical requests must land as response
# cache hits.
echo "serve-smoke: numaioload against $base"
"$workdir/numaioload" -url "$base" -endpoint predict \
    -machine intel-4s4n -target 0 -mix "0:0.5,2:0.5" \
    -concurrency 2 -requests 50 >"$workdir/load.txt" || fail "numaioload run failed"
cat "$workdir/load.txt"
grep -q 'requests 50 errors 0' "$workdir/load.txt" || fail "numaioload lost requests"
grep -Eq 'rps [1-9][0-9]*' "$workdir/load.txt" || fail "numaioload reported zero RPS"
curl -fsS "$base/metrics" >"$workdir/metrics.txt"
grep -Eq 'numaiod_predict_cache_hits_total [1-9]' "$workdir/metrics.txt" \
    || fail "predict response cache saw no hits under load"

curl -fsS "$base/metrics" >"$workdir/metrics.txt"
grep -q 'numaiod_requests_total{endpoint="/v1/characterize",status="200"} 2' "$workdir/metrics.txt" \
    || fail "metrics missing characterize counter"
grep -Eq 'numaiod_model_cache\{event="hit"\} [1-9]' "$workdir/metrics.txt" \
    || fail "metrics missing cache hit"
grep -q 'numaiod_stale_models 0' "$workdir/metrics.txt" \
    || fail "metrics missing staleness gauge"
grep -q 'numaiod_breaker_open 0' "$workdir/metrics.txt" \
    || fail "metrics missing breaker gauge"
# Additive telemetry series (rendered after the historical block; the
# pre-existing names above must keep matching unchanged).
grep -Eq 'numaiod_solver_solves_total [1-9]' "$workdir/metrics.txt" \
    || fail "metrics missing solver counter"
grep -q 'numaiod_measure_workers_busy' "$workdir/metrics.txt" \
    || fail "metrics missing worker occupancy gauge"
grep -q 'numaiod_trace_active 0' "$workdir/metrics.txt" \
    || fail "metrics missing trace gauge"

# Trace round-trip: start, run a fresh (uncached) characterization under
# the recorder, stop, download, and check the recording is a non-empty
# Chrome trace that captured the measurement spans.
echo "serve-smoke: /debug/trace round-trip"
curl -fsS -o "$workdir/resp" -X POST "$base/debug/trace/start"
grep -q '"tracing": true' "$workdir/resp" || fail "trace start not acknowledged"
curl -fsS "$base/metrics" | grep -q 'numaiod_trace_active 1' \
    || fail "trace gauge did not flip on"
char2='{"machine": "intel-4s4n", "config": {"repeats": 2, "sigma": -1}}'
curl -fsS -o "$workdir/resp" -X POST -d "$char2" "$base/v1/characterize"
grep -q '"cached": false' "$workdir/resp" || fail "traced characterize unexpectedly cached"
curl -fsS -o "$workdir/resp" -X POST "$base/debug/trace/stop"
grep -Eq '"events": [1-9]' "$workdir/resp" || fail "trace stop reported no events"
curl -fsS -o "$workdir/trace.json" "$base/debug/trace"
[ -s "$workdir/trace.json" ] || fail "downloaded trace is empty"
grep -q '"displayTimeUnit":"ms"' "$workdir/trace.json" || fail "trace is not Chrome trace-event JSON"
grep -q '"cat":"measure"' "$workdir/trace.json" || fail "trace has no measurement spans"
grep -q '"cat":"http"' "$workdir/trace.json" || fail "trace has no request spans"
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$workdir/trace.json" >/dev/null || fail "trace is not valid JSON"
fi

echo "serve-smoke: sending SIGTERM"
kill -TERM "$pid"
wait_exit "$pid" || fail "daemon did not exit after SIGTERM"
pid=""
grep -q drained "$workdir/out.log" || fail "daemon exited without draining"
echo "serve-smoke: ok"
