#!/usr/bin/env bash
# Multi-node e2e smoke: a distsite daemon streams row blocks into a
# distserve coordinator over the binary wire protocol; the coordinator is
# kill -9'd mid-stream and restarted on the same data directory; the
# stream must finish over the reconnect and the coordinator's final query
# must equal the site's local oracle replay bit for bit. Exercises the
# whole tentpole: framed codec, backpressure window, backoff reconnect,
# checkpointed watermarks, exactly-once resume.
#
# Phase two turns on the durability screws: acked HTTP batches against the
# write-ahead log while a loop hammers explicit checkpoints, then another
# kill -9 (likely mid-checkpoint-write). After restart every acknowledged
# batch must be present (WAL replay), only whole batches may exist (torn
# tail truncated), no orphaned .ckpt-* temp survives the sweep, and
# /metrics must carry a healthy durability section.
#
# Phase three is message mode: three distsite -protocol p2 daemons run
# matrix P2's site half and stream only its messages into one tracker,
# through one more kill -9 of the coordinator. The restarted tracker must
# refuse a row batch (it is the coordinator half alone), hold P2's
# covariance bound ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F over every row the sites
# generated, have applied each message the sites sent exactly once, and
# have received fewer messages than there were rows.
#
# Usage: scripts/e2e_smoke.sh  (run from anywhere inside the repo)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
cleanup() {
  # shellcheck disable=SC2046  # pids are newline-separated words
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

HTTP_PORT=$((20000 + RANDOM % 20000))
WIRE_PORT=$((HTTP_PORT + 1))
HTTP="http://127.0.0.1:$HTTP_PORT"
TRACKER=smoke

echo "e2e: building daemons"
(cd "$ROOT" && go build -o "$WORK" ./cmd/distserve ./cmd/distsite ./scripts/p2check)

start_serve() {
  "$WORK/distserve" -addr "127.0.0.1:$HTTP_PORT" -wire "127.0.0.1:$WIRE_PORT" \
    -data "$WORK/data" -checkpoint 200ms >>"$WORK/serve.log" 2>&1 &
  SERVE_PID=$!
}

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$HTTP/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "e2e: coordinator never became healthy" >&2
  cat "$WORK/serve.log" >&2
  return 1
}

echo "e2e: starting coordinator (http :$HTTP_PORT, wire :$WIRE_PORT)"
start_serve
wait_healthy

curl -fsS -X PUT -H 'Content-Type: application/json' \
  -d '{"kind":"matrix","protocol":"p2","sites":4,"epsilon":0.2,"dim":16}' \
  "$HTTP/trackers/$TRACKER" >/dev/null

echo "e2e: streaming 4000 rows (125 blocks, paced)"
"$WORK/distsite" -coord "127.0.0.1:$WIRE_PORT" -http "$HTTP" \
  -tracker "$TRACKER" -site 1 -rows 4000 -block 32 -pace 10ms -seed 7 \
  -oracle >"$WORK/oracle.json" 2>>"$WORK/site.log" &
SITE_PID=$!

# Kill the coordinator mid-stream — hard, no shutdown checkpoint — and
# restart it on the same data directory. The site reconnects with backoff
# and resumes from the restored watermark.
sleep 0.5
echo "e2e: kill -9 coordinator mid-stream, restarting"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
start_serve
wait_healthy

if ! wait "$SITE_PID"; then
  echo "e2e: distsite failed" >&2
  cat "$WORK/site.log" >&2
  exit 1
fi

curl -fsS "$HTTP/trackers/$TRACKER/query" >"$WORK/query.json"
curl -fsS "$HTTP/metrics" >"$WORK/metrics.json"

# The coordinator's answer must match the oracle replay bit for bit, and
# /metrics must carry the wire section with per-update network cost.
cat >"$WORK/check.go" <<'EOF'
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

type doc struct {
	Count     int64    `json:"count"`
	Frobenius *float64 `json:"frobenius"`
	Trace     *float64 `json:"trace"`
}

func read(path string) doc {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	var d doc
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		fmt.Fprintf(os.Stderr, "decoding %s: %v\n", path, err)
		os.Exit(1)
	}
	if d.Frobenius == nil || d.Trace == nil {
		fmt.Fprintf(os.Stderr, "%s is missing frobenius/trace\n", path)
		os.Exit(1)
	}
	return d
}

func main() {
	oracle, query := read(os.Args[1]), read(os.Args[2])
	if oracle.Count != query.Count {
		fmt.Fprintf(os.Stderr, "count: oracle %d, coordinator %d\n", oracle.Count, query.Count)
		os.Exit(1)
	}
	if math.Float64bits(*oracle.Frobenius) != math.Float64bits(*query.Frobenius) {
		fmt.Fprintf(os.Stderr, "frobenius: oracle %v, coordinator %v (not bit-identical)\n", *oracle.Frobenius, *query.Frobenius)
		os.Exit(1)
	}
	if math.Float64bits(*oracle.Trace) != math.Float64bits(*query.Trace) {
		fmt.Fprintf(os.Stderr, "trace: oracle %v, coordinator %v (not bit-identical)\n", *oracle.Trace, *query.Trace)
		os.Exit(1)
	}
	var metrics struct {
		Wire *struct {
			NetRows        int64   `json:"net_rows"`
			BytesPerUpdate float64 `json:"net_bytes_per_update"`
		} `json:"wire"`
	}
	mf, err := os.Open(os.Args[3])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer mf.Close()
	if err := json.NewDecoder(mf).Decode(&metrics); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if metrics.Wire == nil || metrics.Wire.NetRows == 0 || metrics.Wire.BytesPerUpdate <= 0 {
		fmt.Fprintf(os.Stderr, "metrics wire section missing or empty: %+v\n", metrics.Wire)
		os.Exit(1)
	}
	fmt.Printf("e2e: query matches oracle bit for bit (count=%d frobenius=%v); wire net_rows=%d bytes/update=%.1f\n",
		query.Count, *query.Frobenius, metrics.Wire.NetRows, metrics.Wire.BytesPerUpdate)
}
EOF
go run "$WORK/check.go" "$WORK/oracle.json" "$WORK/query.json" "$WORK/metrics.json"

echo "e2e: reconnect evidence:"
grep -E "reconnect|retrans" "$WORK/site.log" | tail -2 || true

# ---- Phase two: WAL durability under kill -9 during checkpoint writes ----

HH=hhsmoke
BATCH_ITEMS=5
curl -fsS -X PUT -H 'Content-Type: application/json' \
  -d '{"kind":"hh","sites":4,"epsilon":0.05,"seed":11}' \
  "$HTTP/trackers/$HH" >/dev/null

# Hammer explicit checkpoints so the kill below lands mid-checkpoint-write
# with high probability (on top of the 200ms periodic loop).
(while :; do
  curl -fsS -X POST "$HTTP/trackers/$HH/checkpoint" >/dev/null 2>&1 || true
done) &
HAMMER_PID=$!

echo "e2e: acked WAL ingestion with checkpoint hammer"
ACKED=0
SENT=0
for i in $(seq 1 200); do
  SENT=$((SENT + 1))
  if curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"site\":$((i % 4)),\"items\":[{\"elem\":$i},{\"elem\":$((i * 7))},{\"elem\":$((i * 13))},{\"elem\":$((i % 97))},{\"elem\":$((i * 31))}]}" \
    "$HTTP/trackers/$HH/items" >/dev/null 2>&1; then
    ACKED=$((ACKED + 1))
  fi
done

echo "e2e: kill -9 coordinator under checkpoint hammer ($ACKED/$SENT batches acked)"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
kill "$HAMMER_PID" 2>/dev/null || true
wait "$HAMMER_PID" 2>/dev/null || true

start_serve
wait_healthy

# No orphaned checkpoint temp may survive the Open sweep.
TEMPS=$(find "$WORK/data" -maxdepth 1 -name '.ckpt-*' | wc -l)
if [ "$TEMPS" -ne 0 ]; then
  echo "e2e: $TEMPS orphaned .ckpt-* temp files survived restart" >&2
  ls -la "$WORK/data" >&2
  exit 1
fi

COUNT=$(curl -fsS "$HTTP/trackers/$HH" | sed -n 's/.*"count":\([0-9]*\).*/\1/p')
MIN=$((ACKED * BATCH_ITEMS))
MAX=$((SENT * BATCH_ITEMS))
if [ -z "$COUNT" ] || [ "$COUNT" -lt "$MIN" ] || [ "$COUNT" -gt "$MAX" ]; then
  echo "e2e: recovered count $COUNT outside [$MIN,$MAX] — acked batches lost" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
if [ $((COUNT % BATCH_ITEMS)) -ne 0 ]; then
  echo "e2e: recovered count $COUNT is not a whole number of batches (torn batch applied)" >&2
  exit 1
fi

curl -fsS "$HTTP/metrics" >"$WORK/metrics2.json"
if ! grep -q '"durability"' "$WORK/metrics2.json" || ! grep -q '"wal"' "$WORK/metrics2.json"; then
  echo "e2e: /metrics is missing the durability/wal section" >&2
  exit 1
fi
if grep -q '"degraded":true' "$WORK/metrics2.json"; then
  echo "e2e: coordinator restarted degraded" >&2
  exit 1
fi
echo "e2e: WAL recovery holds (count=$COUNT, acked floor=$MIN); durability metrics healthy"

# ---- Phase three: message mode, the sites run matrix P2's site half ----

P2T=p2smoke
P2_SITES=3
P2_ROWS=4000
P2_EPS=0.2
curl -fsS -X PUT -H 'Content-Type: application/json' \
  -d "{\"kind\":\"matrix\",\"protocol\":\"p2\",\"sites\":$P2_SITES,\"epsilon\":$P2_EPS,\"dim\":16}" \
  "$HTTP/trackers/$P2T" >/dev/null

echo "e2e: message mode: $P2_SITES distsite -protocol p2 sites, $P2_ROWS rows each (125 blocks, paced)"
P2_PIDS=()
for s in $(seq 0 $((P2_SITES - 1))); do
  "$WORK/distsite" -protocol p2 -coord "127.0.0.1:$WIRE_PORT" -http "$HTTP" \
    -tracker "$P2T" -site "$s" -rows "$P2_ROWS" -block 32 -pace 10ms -seed 7 \
    -oracle >"$WORK/p2oracle.$s.json" 2>>"$WORK/p2site.$s.log" &
  P2_PIDS+=($!)
done

sleep 0.5
echo "e2e: kill -9 coordinator mid-stream, restarting"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
start_serve
wait_healthy

for s in $(seq 0 $((P2_SITES - 1))); do
  if ! wait "${P2_PIDS[$s]}"; then
    echo "e2e: distsite -protocol p2 site $s failed" >&2
    cat "$WORK/p2site.$s.log" >&2
    exit 1
  fi
done

echo "e2e: message-mode reconnect evidence:"
grep -hE "reconnect|retrans" "$WORK"/p2site.*.log | tail -3 || true

# The tracker restored after the kill is P2's coordinator half alone,
# which takes no rows: a row batch over HTTP must be refused with a 400.
ROWS_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d '{"site":0,"rows":[[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]]}' "$HTTP/trackers/$P2T/rows")
if [ "$ROWS_STATUS" != 400 ]; then
  echo "e2e: a row batch to the message-fed tracker got $ROWS_STATUS, want 400" >&2
  exit 1
fi

curl -fsS "$HTTP/trackers/$P2T/query?gram=1" >"$WORK/p2query.json"
curl -fsS "$HTTP/metrics" >"$WORK/p2metrics.json"

# What each mode put on the wire per row, from the sites' own byte
# counters (retransmits after a kill included).
site_bytes() { sed -n 's|.* \([0-9]*\) bytes out.*|\1|p' "$@" | awk '{s += $1} END {print s + 0}'; }
ROWS_BYTES=$(site_bytes "$WORK/site.log")
P2_BYTES=$(site_bytes "$WORK"/p2site.*.log)

# The coordinator's Gram against the sum of the sites' exact Grams, and
# its message tally against what the sites sent.
"$WORK/p2check" "$P2T" "$P2_EPS" "$ROWS_BYTES" 4000 "$P2_BYTES" \
  "$WORK/p2query.json" "$WORK/p2metrics.json" "$WORK"/p2oracle.*.json

echo "e2e: PASS"
