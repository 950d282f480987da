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
fail() { echo "smoke: $*" >&2; cat "$workdir/mustd.log" >&2; exit 1; }
# get PATH and post PATH BODY print the reply, failing (naming the
# request) on a transport error or a non-2xx status.
get() { curl -sf "http://$addr$1" || fail "GET $1 failed"; }
post() { curl -sf -X POST "http://$addr$1" -d "$2" || fail "POST $1 failed"; }
# expect BODY PATTERN WHAT fails, printing BODY, unless PATTERN matches
# it. The body is captured before it is matched: piping curl into
# grep -q under pipefail would fail whenever grep exits before curl has
# written everything.
expect() { grep -q -- "$2" <<<"$1" || fail "$3: $1"; }

out=$(get /healthz); expect "$out" ok "daemon never became healthy"

# Search before build must 409 with a structured error.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/search" \
  -d '{"vectors":{"image":[1,0,0,0,0,0,0,0]}}')
[ "$code" = 409 ] || fail "pre-build search returned $code, want 409"

# Insert a batch, rebuild, and search for an exact stored object.
out=$(post /v1/insert '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]},
    {"image":[0,0,0,0,1,0,0,0], "text":[1,1,0,0]},
    {"image":[0,0,0,0,0,1,0,0], "text":[0,1,1,0]},
    {"image":[0,0,0,0,0,0,1,0], "text":[0,0,1,1]},
    {"image":[0,0,0,0,0,0,0,1], "text":[1,0,0,1]}
  ]}')
expect "$out" '"ids"' "insert failed"
out=$(post /v1/rebuild '{}'); expect "$out" '"built":true' "rebuild failed"

search='{"vectors":{"image":[0,1,0,0,0,0,0,0],"text":[0,1,0,0]},"k":2}'
out=$(post /v1/search "$search")
expect "$out" '"matches"' "search returned no matches"
expect "$out" '"by_modality"' "per-modality breakdown missing"
expect "$out" '"query_time_ms"' "query_time_ms missing"
# A lone search on an idle daemon takes a free engine slot: it reports
# its (tiny) slot wait, and no batch_size, since nothing batches searches.
expect "$out" '"queue_ms":' "lone search reported no queue_ms"
if grep -q '"batch_size"' <<<"$out"; then fail "search reply still carries batch_size: $out"; fi

# The identical repeat must come from the result cache.
out=$(post /v1/search "$search"); expect "$out" '"cached":true' "repeat search was not served from cache"

out=$(get /v1/stats); expect "$out" '"cache_hits":1' "stats did not count the cache hit"
metrics=$(get /metrics)
expect "$metrics" 'mustd_requests_total{endpoint="search",code="200"}' "metrics missing search counter"
expect "$metrics" 'mustd_engine_objects 8' "metrics missing engine gauge"

# A short burst through the load driver (also proves the client works).
"$workdir/mustload" -addr "$addr" -c 8 -duration 2s -k 2 >"$workdir/load.log" 2>&1 \
  || fail "mustload run failed: $(cat "$workdir/load.log")"
grep -q 'errors 0' "$workdir/load.log" || fail "load run saw errors: $(cat "$workdir/load.log")"

# Request decoding: everything sent so far (curl bodies above, mustload's
# json.Marshal bodies) was in the plain grammar the fast scan takes, and
# so is a body spelled the way Python's json.dumps spells it. The same
# query with an escaped key ("\u0069mage" is "image") is outside it:
# encoding/json decodes that one, to the same answer.
decoded() { local m; m=$(get /metrics); sed -n "s/^must_decode_total{path=\"$1\"} //p" <<<"$m"; }
matches() { grep -o '"matches":\[[^]]*\]' <<<"$1"; }
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
out=$(post /v1/search "$search"); expect "$out" '"matches"' "restored daemon cannot search"
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
out=$(get /healthz); expect "$out" ok "sharded daemon never became healthy: $(cat "$workdir/mustd3.log")"

out=$(post /v1/insert '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]},
    {"image":[0,0,0,0,1,0,0,0], "text":[1,1,0,0]},
    {"image":[0,0,0,0,0,1,0,0], "text":[0,1,1,0]},
    {"image":[0,0,0,0,0,0,1,0], "text":[0,0,1,1]},
    {"image":[0,0,0,0,0,0,0,1], "text":[1,0,0,1]}
  ]}')
expect "$out" '"ids"' "sharded insert failed"
out=$(post /v1/rebuild '{}'); expect "$out" '"built":true' "sharded rebuild failed"

out=$(post /v1/search "$search"); expect "$out" '"matches"' "sharded search returned no matches"
stats=$(get /v1/stats)
[ "$(grep -o '"state":"built"' <<<"$stats" | wc -l)" = 4 ] \
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
out=$(post /v1/search "$search")
expect "$out" '"matches"' "restored sharded daemon cannot search: $(cat "$workdir/mustd4.log")"
out=$(get /v1/stats); expect "$out" '"state":"built"' "restored sharded daemon lost shard stats"
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
out=$(get /healthz); expect "$out" ok "wal daemon never became healthy: $(cat "$workdir/mustd5.log")"

out=$(post /v1/insert '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]}
  ]}')
expect "$out" '"ids"' "wal insert failed"
out=$(post /v1/rebuild '{}'); expect "$out" '"built":true' "wal rebuild failed"
out=$(post /v1/insert '{"vectors":{"image":[0,0,0,0,1,0,0,0],"text":[1,1,0,0]}}')
expect "$out" '"ids":\[4\]' "wal post-build insert failed"
# Four inserts, a build and one more insert: six records, each acked by
# an fsync of its own since one client never overlaps two writes.
out=$(get /v1/stats)
expect "$out" '"wal":{"records":6,"fsyncs":6,"records_per_fsync":1,"poisoned":false}' "wal stats block wrong"
out=$(get /metrics)
expect "$out" '^must_wal_fsync_seconds_count 6$' "must_wal_fsync_seconds missing from /metrics"

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
out=$(get /v1/stats); expect "$out" '"objects":5' "acked writes lost across kill -9"
out=$(post /v1/search '{"vectors":{"image":[0,0,0,0,1,0,0,0],"text":[1,1,0,0]},"k":1}')
expect "$out" '"id":4' "post-build acked insert not searchable after replay"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "wal daemon exited non-zero on SIGTERM"

# --- Maintenance-soak pass: boot with the background maintenance
# manager, push one shard's tombstones past the watermark, and require
# the manager to rebuild on its own — no /v1/rebuild call — with the
# counters visible in /v1/stats and /metrics, while searches stay 200.
"$workdir/mustd" -addr "$addr" -schema image:8,text:4 -shards 2 \
  -maint -maint-interval 300ms -maint-gap 100ms -maint-tombstone 0.10 \
  >"$workdir/mustd7.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
out=$(get /healthz); expect "$out" ok "maint daemon never became healthy: $(cat "$workdir/mustd7.log")"

out=$(post /v1/insert '{
  "objects": [
    {"image":[1,0,0,0,0,0,0,0], "text":[1,0,0,0]},
    {"image":[0,1,0,0,0,0,0,0], "text":[0,1,0,0]},
    {"image":[0,0,1,0,0,0,0,0], "text":[0,0,1,0]},
    {"image":[0,0,0,1,0,0,0,0], "text":[0,0,0,1]},
    {"image":[0,0,0,0,1,0,0,0], "text":[1,1,0,0]},
    {"image":[0,0,0,0,0,1,0,0], "text":[0,1,1,0]},
    {"image":[0,0,0,0,0,0,1,0], "text":[0,0,1,1]},
    {"image":[0,0,0,0,0,0,0,1], "text":[1,0,0,1]}
  ]}')
expect "$out" '"ids"' "maint insert failed"
out=$(post /v1/rebuild '{}'); expect "$out" '"built":true' "maint initial rebuild failed"

# Each shard holds four objects, so one tombstone is a 0.25 ratio, past
# the 0.10 watermark.
out=$(post /v1/delete '{"ids":[0,1]}'); expect "$out" '"deleted":2' "maint delete failed"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/search" -d "$search")
[ "$code" = 200 ] || fail "search with tombstones pending returned $code, want 200"

# The manager must now rebuild the dirty shards on its own: tombstones
# drain to zero and the rebuild counter moves, with no /v1/rebuild.
healed=0
for _ in $(seq 1 50); do
  stats=$(get /v1/stats)
  if ! grep -q '"deleted":[1-9]' <<<"$stats" && grep -q '"rebuilds":[1-9]' <<<"$stats"; then
    healed=1; break
  fi
  sleep 0.1
done
[ "$healed" = 1 ] || fail "maintenance never rebuilt: $stats"
expect "$stats" '"enabled":true' "stats missing maintenance block"

metrics=$(get /metrics)
expect "$metrics" 'must_maintenance_rebuilds_total [1-9]' "metrics missing nonzero must_maintenance_rebuilds_total"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "maint daemon exited non-zero on SIGTERM"

echo "mustd smoke test passed (single + 4-shard + WAL crash recovery + maintenance soak)"
