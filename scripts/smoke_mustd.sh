#!/usr/bin/env bash
# End-to-end smoke test for the mustd serving daemon: builds the
# binaries, boots a daemon on a random port, walks the API (insert →
# rebuild → search → stats → metrics → healthz), exercises the result
# cache, then SIGTERMs and requires a clean drain plus a snapshot file.
# CI runs this after unit tests; it needs nothing but Go and curl.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/mustd" ./cmd/mustd
go build -o "$workdir/mustload" ./cmd/mustload

port=$(( (RANDOM % 20000) + 20000 ))
addr="127.0.0.1:$port"
"$workdir/mustd" -addr "$addr" -schema image:8,text:4 \
  -snapshot "$workdir/engine.snap" >"$workdir/mustd.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$addr/healthz" | grep -q ok || { echo "daemon never became healthy"; cat "$workdir/mustd.log"; exit 1; }

fail() { echo "smoke: $*" >&2; cat "$workdir/mustd.log" >&2; exit 1; }

# Search before build must 409 with a structured error.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/search" \
  -d '{"vectors":{"image":[1,0,0,0,0,0,0,0]}}')
[ "$code" = 409 ] || fail "pre-build search returned $code, want 409"

# Insert a batch, rebuild, and search for an exact stored object.
curl -sf -X POST "http://$addr/v1/insert" -d '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]},
    {"image":[0,0,0,0,1,0,0,0], "text":[1,1,0,0]},
    {"image":[0,0,0,0,0,1,0,0], "text":[0,1,1,0]},
    {"image":[0,0,0,0,0,0,1,0], "text":[0,0,1,1]},
    {"image":[0,0,0,0,0,0,0,1], "text":[1,0,0,1]}
  ]}' | grep -q '"ids"' || fail "insert failed"
curl -sf -X POST "http://$addr/v1/rebuild" -d '{}' | grep -q '"built":true' || fail "rebuild failed"

search='{"vectors":{"image":[0,1,0,0,0,0,0,0],"text":[0,1,0,0]},"k":2}'
out=$(curl -sf -X POST "http://$addr/v1/search" -d "$search")
echo "$out" | grep -q '"matches"' || fail "search returned no matches: $out"
echo "$out" | grep -q '"by_modality"' || fail "per-modality breakdown missing: $out"
echo "$out" | grep -q '"query_time_ms"' || fail "query_time_ms missing: $out"
# A lone search on an idle daemon finds an engine slot free: it is
# dispatched by itself, with no coalescing wait.
echo "$out" | grep -q '"batch_size":1[,}]' || fail "lone search on an idle daemon did not run alone: $out"

# The identical repeat must come from the result cache.
curl -sf -X POST "http://$addr/v1/search" -d "$search" | grep -q '"cached":true' \
  || fail "repeat search was not served from cache"

curl -sf "http://$addr/v1/stats" | grep -q '"cache_hits":1' || fail "stats did not count the cache hit"
metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -q 'mustd_requests_total{endpoint="search",code="200"}' \
  || fail "metrics missing search counter"
echo "$metrics" | grep -q 'mustd_engine_objects 8' || fail "metrics missing engine gauge"

# A short burst through the load driver (also proves the client works).
"$workdir/mustload" -addr "$addr" -c 8 -duration 2s -k 2 >"$workdir/load.log" 2>&1 \
  || fail "mustload run failed: $(cat "$workdir/load.log")"
grep -q 'errors 0' "$workdir/load.log" || fail "load run saw errors: $(cat "$workdir/load.log")"

# Request decoding: everything sent so far (curl bodies above, mustload's
# json.Marshal bodies) was in the plain grammar the fast scan takes, and
# so is a body spelled the way Python's json.dumps spells it. The same
# query with an escaped key ("\u0069mage" is "image") is outside it:
# encoding/json decodes that one, to the same answer.
decoded() { curl -sf "http://$addr/metrics" | sed -n "s/^must_decode_total{path=\"$1\"} //p"; }
matches() { echo "$1" | grep -o '"matches":\[[^]]*\]'; }
fast0=$(decoded fast)
[ "$(decoded std)" = 0 ] || fail "a smoke or mustload body missed the fast decoder: std=$(decoded std)"
py='{"vectors": {"image": [0, 1, 0.0, 0, 0, 0, 0, 1e-05], "text": [0, 1.0, 0, 0]}, "k": 2, "no_cache": true}'
out_py=$(curl -sf -X POST "http://$addr/v1/search" -d "$py") || fail "json.dumps-style search failed"
[ "$(decoded fast)" = $((fast0 + 1)) ] && [ "$(decoded std)" = 0 ] \
  || fail "json.dumps-style body was not decoded by the fast scan"
out_esc=$(curl -sf -X POST "http://$addr/v1/search" -d "${py/\"image\"/\"\\u0069mage\"}") \
  || fail "search with an escaped key failed"
[ "$(decoded std)" = 1 ] || fail "escaped key did not go through encoding/json"
[ -n "$(matches "$out_py")" ] && [ "$(matches "$out_py")" = "$(matches "$out_esc")" ] \
  || fail "escaped-key search answered differently: $out_py vs $out_esc"

# Graceful drain: SIGTERM → clean exit, 503 health during drain is
# timing-dependent so only the exit path and snapshot are asserted.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "daemon exited non-zero on SIGTERM"
grep -q "drained cleanly" "$workdir/mustd.log" || fail "no clean-drain log line"
[ -s "$workdir/engine.snap" ] || fail "shutdown snapshot missing"

# The snapshot restores: boot a second daemon from it and search.
"$workdir/mustd" -addr "$addr" -load "$workdir/engine.snap" >"$workdir/mustd2.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf -X POST "http://$addr/v1/search" -d "$search" | grep -q '"matches"' \
  || fail "restored daemon cannot search"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "restored daemon exited non-zero"

# --- Sharded pass: the same lifecycle against a 4-shard engine. The
# serving tier is engine-agnostic, so everything above must work
# unchanged; what is new here is per-shard stats, the MUSTSH1 snapshot,
# and -load sniffing the sharded format without a -shards flag.
"$workdir/mustd" -addr "$addr" -schema image:8,text:4 -shards 4 \
  -snapshot "$workdir/sharded.snap" >"$workdir/mustd3.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$addr/healthz" | grep -q ok || fail "sharded daemon never became healthy: $(cat "$workdir/mustd3.log")"

curl -sf -X POST "http://$addr/v1/insert" -d '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]},
    {"image":[0,0,0,0,1,0,0,0], "text":[1,1,0,0]},
    {"image":[0,0,0,0,0,1,0,0], "text":[0,1,1,0]},
    {"image":[0,0,0,0,0,0,1,0], "text":[0,0,1,1]},
    {"image":[0,0,0,0,0,0,0,1], "text":[1,0,0,1]}
  ]}' | grep -q '"ids"' || fail "sharded insert failed"
curl -sf -X POST "http://$addr/v1/rebuild" -d '{}' | grep -q '"built":true' || fail "sharded rebuild failed"

out=$(curl -sf -X POST "http://$addr/v1/search" -d "$search")
echo "$out" | grep -q '"matches"' || fail "sharded search returned no matches: $out"
stats=$(curl -sf "http://$addr/v1/stats")
[ "$(echo "$stats" | grep -o '"state":"built"' | wc -l)" = 4 ] \
  || fail "stats does not report 4 built shards: $stats"

kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "sharded daemon exited non-zero on SIGTERM"
grep -q "drained cleanly" "$workdir/mustd3.log" || fail "sharded daemon: no clean-drain log line"
[ -s "$workdir/sharded.snap" ] || fail "sharded shutdown snapshot missing"

# Restore from the MUSTSH1 snapshot: no -shards flag, -load sniffs it.
"$workdir/mustd" -addr "$addr" -load "$workdir/sharded.snap" >"$workdir/mustd4.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf -X POST "http://$addr/v1/search" -d "$search" | grep -q '"matches"' \
  || fail "restored sharded daemon cannot search: $(cat "$workdir/mustd4.log")"
curl -sf "http://$addr/v1/stats" | grep -q '"state":"built"' \
  || fail "restored sharded daemon lost shard stats"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "restored sharded daemon exited non-zero"

# --- WAL crash pass: acked writes must survive kill -9. Boot with a
# write-ahead log, ack a batch of inserts, kill the daemon without any
# drain, restart on the same log, and require every acked object back.
"$workdir/mustd" -addr "$addr" -schema image:8,text:4 -wal "$workdir/wal" \
  >"$workdir/mustd5.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$addr/healthz" | grep -q ok || fail "wal daemon never became healthy: $(cat "$workdir/mustd5.log")"

curl -sf -X POST "http://$addr/v1/insert" -d '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]}
  ]}' | grep -q '"ids"' || fail "wal insert failed"
curl -sf -X POST "http://$addr/v1/rebuild" -d '{}' | grep -q '"built":true' || fail "wal rebuild failed"
curl -sf -X POST "http://$addr/v1/insert" \
  -d '{"vectors":{"image":[0,0,0,0,1,0,0,0],"text":[1,1,0,0]}}' \
  | grep -q '"ids":\[4\]' || fail "wal post-build insert failed"
# Four inserts, a build and one more insert: six records, each acked by
# an fsync of its own since one client never overlaps two writes.
curl -sf "http://$addr/v1/stats" | grep -q '"wal":{"records":6,"fsyncs":6,"records_per_fsync":1,"poisoned":false}' \
  || fail "wal stats block wrong: $(curl -s "http://$addr/v1/stats")"
curl -sf "http://$addr/metrics" | grep -q '^must_wal_fsync_seconds_count 6$' \
  || fail "must_wal_fsync_seconds missing from /metrics"

# kill -9: no drain, no snapshot — only the WAL survives.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
ls "$workdir/wal"/*.seg >/dev/null 2>&1 || fail "no WAL segments on disk after kill -9"

"$workdir/mustd" -addr "$addr" -schema image:8,text:4 -wal "$workdir/wal" \
  >"$workdir/mustd6.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
grep -q "replayed" "$workdir/mustd6.log" || fail "restart did not replay the WAL: $(cat "$workdir/mustd6.log")"
curl -sf "http://$addr/v1/stats" | grep -q '"objects":5' \
  || fail "acked writes lost across kill -9: $(curl -s "http://$addr/v1/stats")"
curl -sf -X POST "http://$addr/v1/search" \
  -d '{"vectors":{"image":[0,0,0,0,1,0,0,0],"text":[1,1,0,0]},"k":1}' \
  | grep -q '"id":4' || fail "post-build acked insert not searchable after replay"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "wal daemon exited non-zero on SIGTERM"

# --- Maintenance-soak pass: boot with the background maintenance
# manager and a low debt watermark, push tombstones past both, and
# require (a) writes shed with 429 + Retry-After while searches stay
# 200, and (b) the manager rebuilds on its own — no /v1/rebuild call —
# with the counters visible in /v1/stats and /metrics.
"$workdir/mustd" -addr "$addr" -schema image:8,text:4 -shards 2 \
  -maint -maint-interval 300ms -maint-gap 100ms -maint-tombstone 0.10 \
  -debt-watermark 0.05 >"$workdir/mustd7.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://$addr/healthz" | grep -q ok || fail "maint daemon never became healthy: $(cat "$workdir/mustd7.log")"

curl -sf -X POST "http://$addr/v1/insert" -d '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]},
    {"image":[0,0,0,0,1,0,0,0], "text":[1,1,0,0]},
    {"image":[0,0,0,0,0,1,0,0], "text":[0,1,1,0]},
    {"image":[0,0,0,0,0,0,1,0], "text":[0,0,1,1]},
    {"image":[0,0,0,0,0,0,0,1], "text":[1,0,0,1]}
  ]}' | grep -q '"ids"' || fail "maint insert failed"
curl -sf -X POST "http://$addr/v1/rebuild" -d '{}' | grep -q '"built":true' || fail "maint initial rebuild failed"

# Each delete pushes the worst shard past the 0.05 debt watermark, so
# the write after it must shed 429 — unless a maintenance rebuild
# raced in between, in which case the next delete re-arms the debt.
shed_id=""
for id in 0 1 2 3 4 5; do
  code=$(curl -s -o /dev/null -D "$workdir/shed.hdrs" -w '%{http_code}' \
    -X POST "http://$addr/v1/delete" -d "{\"ids\":[$id]}")
  if [ "$code" = 429 ]; then shed_id=$id; break; fi
  [ "$code" = 200 ] || fail "maint delete $id returned $code"
done
[ -n "$shed_id" ] || fail "writes never shed past the debt watermark"
grep -iq '^retry-after:' "$workdir/shed.hdrs" || fail "shed write missing Retry-After"
# Reads are never gated by write backpressure.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/search" -d "$search")
[ "$code" = 200 ] || fail "search during write overload returned $code, want 200"

# The manager must now rebuild the dirty shard on its own: tombstones
# drain to zero and the rebuild counter moves, with no /v1/rebuild.
healed=0
for _ in $(seq 1 50); do
  stats=$(curl -sf "http://$addr/v1/stats")
  if ! echo "$stats" | grep -Eq '"deleted":[1-9]' && echo "$stats" | grep -Eq '"rebuilds":[1-9]'; then
    healed=1; break
  fi
  sleep 0.1
done
[ "$healed" = 1 ] || fail "maintenance never rebuilt: $(curl -s "http://$addr/v1/stats")"
curl -sf "http://$addr/v1/stats" | grep -q '"enabled":true' || fail "stats missing maintenance block"

metrics=$(curl -sf "http://$addr/metrics")
echo "$metrics" | grep -Eq 'must_maintenance_rebuilds_total [1-9]' \
  || fail "metrics missing nonzero must_maintenance_rebuilds_total"
echo "$metrics" | grep -Eq 'must_writes_shed_total [1-9]' \
  || fail "metrics missing nonzero must_writes_shed_total"

# Shed writes are retryable: after the self-heal the same delete lands.
curl -sf -X POST "http://$addr/v1/delete" -d "{\"ids\":[$shed_id]}" >/dev/null \
  || fail "retried write failed after self-heal"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "maint daemon exited non-zero on SIGTERM"

echo "mustd smoke test passed (single + 4-shard + WAL crash recovery + maintenance soak)"
