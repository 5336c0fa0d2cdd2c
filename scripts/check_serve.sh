#!/usr/bin/env bash
# End-to-end validation of `anonsafe serve`: drive a scripted stdio
# session (load -> assess x2 -> metrics -> debug -> server_info ->
# batch -> shutdown) against a fixed dataset and check that
#   1. the assess_risk response embeds exactly the document the one-shot
#      CLI prints with `report --json` (bit-identity), at 1 and 8 threads,
#   2. the repeated load and assess hit the dataset / artifact caches
#      (visible in the metrics response counters),
#   3. shutdown drains: every request gets a response line, in order,
#   4. the v2 surface works end to end: server_info advertises both
#      schema versions plus limits, assess_risk_batch returns per-item
#      envelopes with the default-params item bit-identical to the CLI
#      report, and a second session under --tenant-rate/--tenant-burst
#      refuses the request that overruns its burst with quota_exceeded,
#   5. an out-of-range number (`"threads":1e12`) is answered with
#      invalid_params and the same server then answers a normal request
#      and exits cleanly,
#   6. engine refusals (an exact estimate past the Ryser cutoff, a
#      weighted adversary off the O-estimate) are invalid_params as
#      single requests and batch items, then a normal request is ok and
#      the server drains.
#
# Usage:
#   scripts/check_serve.sh [path/to/anonsafe]
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/src/tools/anonsafe}"
if [[ ! -x "$CLI" ]]; then
  echo "check_serve: CLI not found at $CLI (build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
data="$workdir/sample.dat"

fail() { echo "check_serve: FAIL: $*" >&2; exit 1; }

# Deterministic 12-transaction dataset over 5 items (no generator
# involved, so the golden expectations below never drift).
cat > "$data" <<'EOF'
1 2 3
1 2
2 3 4
1 3 4
2 4
1 2 4
3 4
1 4
2 3
1 2 3 4
2 3 4 5
1 5
EOF

session="$workdir/session.jsonl"
cat > "$session" <<EOF
{"schema_version":1,"id":1,"verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":1,"id":2,"verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":1,"id":3,"verb":"assess_risk","params":{"dataset":"DATASET_KEY"}}
{"schema_version":1,"id":4,"verb":"assess_risk","params":{"dataset":"DATASET_KEY","threads":8}}
{"schema_version":1,"id":5,"verb":"metrics"}
{"schema_version":1,"id":6,"verb":"debug"}
{"schema_version":2,"id":7,"verb":"server_info"}
{"schema_version":2,"id":8,"verb":"assess_risk_batch","params":{"dataset":"DATASET_KEY","items":[{},{"tolerance":0.1},{"estimator":"nope"}]}}
{"schema_version":1,"id":9,"verb":"shutdown"}
EOF

# First pass: learn the content-hash dataset key from a one-line session.
key="$(printf '%s\n' \
  "{\"schema_version\":1,\"id\":0,\"verb\":\"load_dataset\",\"params\":{\"path\":\"$data\"}}" \
  "{\"schema_version\":1,\"id\":0,\"verb\":\"shutdown\"}" \
  | timeout 60 "$CLI" serve \
  | sed -n 's/.*"dataset":"\([0-9a-f]*\)".*/\1/p' | head -1)"
# (sed consumes serve's whole stream; a mid-pipe `head -1` would close
# the pipe before the shutdown response and SIGPIPE the server, which
# pipefail turns into a flaky 141.)
[[ "$key" =~ ^[0-9a-f]{16}$ ]] || fail "could not learn dataset key (got '$key')"

sed -i "s/DATASET_KEY/$key/g" "$session"
responses="$workdir/responses.jsonl"
timeout 120 "$CLI" serve --workers=2 < "$session" > "$responses" \
  || fail "serve session did not complete cleanly"

[[ "$(wc -l < "$responses")" -eq 9 ]] \
  || fail "expected 9 response lines, got $(wc -l < "$responses")"

# Responses arrive in request order on one connection; ids confirm it.
for i in 1 2 3 4 5 6 7 8 9; do
  sed -n "${i}p" "$responses" | grep -q "\"id\":$i,\"ok\":true" \
    || fail "response $i missing or not ok: $(sed -n "${i}p" "$responses")"
done

# 1. Bit-identity with the one-shot CLI, both thread counts.
"$CLI" report "$data" --json > "$workdir/cli.json"
for line in 3 4; do
  sed -n "${line}p" "$responses" \
    | sed 's/.*"report":\({.*}\)}}$/\1/' > "$workdir/srv$line.json"
  diff -q "$workdir/cli.json" <(cat "$workdir/srv$line.json"; ) >/dev/null \
    || { diff "$workdir/cli.json" "$workdir/srv$line.json" >&2 || true
         fail "server report (response $line) differs from CLI report --json"; }
done

# 2. Cache effectiveness: the second load reports cached:true and the
#    metrics response carries non-zero hit counters.
sed -n '2p' "$responses" | grep -q '"cached":true' \
  || fail "second load_dataset did not hit the dataset cache"
metrics="$(sed -n '5p' "$responses")"
grep -q 'anonsafe_serve_dataset_cache_hits_total' <<<"$metrics" \
  || fail "metrics response lacks dataset cache hit counter"
grep -q 'anonsafe_recipe_artifact_hits_total' <<<"$metrics" \
  || fail "metrics response lacks recipe artifact hit counter (repeated assess did not reuse artifacts)"

# 3. The debug verb exposes the flight recorder: every compute request so
#    far (2 loads + 2 assess; metrics/debug are excluded) with outcomes.
debug="$(sed -n '6p' "$responses")"
grep -q '"flight_recorder":{"capacity":' <<<"$debug" \
  || fail "debug response lacks flight_recorder"
grep -q '"recorded":4' <<<"$debug" \
  || fail "flight recorder should have recorded 4 requests: $debug"
grep -q '"verb":"assess_risk"' <<<"$debug" \
  || fail "flight recorder lost the assess_risk entries"
grep -q '"outcome":"ok"' <<<"$debug" \
  || fail "flight recorder entries lack outcomes"

# 4. Shutdown drained and answered last.
sed -n '9p' "$responses" | grep -q '"drained":true' \
  || fail "shutdown response missing drained:true"

# 5. server_info (v2 envelope echoed) advertises both schema versions,
#    the batch verb and the server limits.
info="$(sed -n '7p' "$responses")"
grep -q '"schema_version":2,"id":7,"ok":true' <<<"$info" \
  || fail "server_info response did not echo the v2 envelope"
grep -q '"schema_versions":\[1,2\]' <<<"$info" \
  || fail "server_info does not advertise schema versions 1 and 2"
grep -q '"assess_risk_batch"' <<<"$info" \
  || fail "server_info does not list assess_risk_batch"
grep -q '"max_batch_items"' <<<"$info" \
  || fail "server_info limits lack max_batch_items"

# 6. assess_risk_batch: per-item envelopes — two ok items (the
#    default-params one bit-identical to the one-shot CLI report) and an
#    invalid_params envelope for the unknown estimator, with the batch
#    response itself ok.
batch="$(sed -n '8p' "$responses")"
grep -qF "\"report\":$(cat "$workdir/cli.json")" <<<"$batch" \
  || fail "batch default-params item differs from CLI report --json"
[[ "$(grep -o '"ok":true' <<<"$batch" | wc -l)" -eq 3 ]] \
  || fail "batch should carry two ok item envelopes plus its own ok"
grep -q '"code":"invalid_params"' <<<"$batch" \
  || fail "unknown-estimator item did not produce an invalid_params envelope"

# 7. Tenant quotas: burst 2 at a negligible refill rate — the third
#    request from the same tenant is refused with quota_exceeded while
#    the session itself stays up and drains.
quota_session="$workdir/quota_session.jsonl"
cat > "$quota_session" <<EOF
{"schema_version":2,"id":1,"tenant":"team-a","verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":2,"id":2,"tenant":"team-a","verb":"assess_risk","params":{"dataset":"$key"}}
{"schema_version":2,"id":3,"tenant":"team-a","verb":"assess_risk","params":{"dataset":"$key"}}
{"schema_version":1,"id":4,"verb":"shutdown"}
EOF
quota_responses="$workdir/quota_responses.jsonl"
timeout 120 "$CLI" serve --tenant-rate=0.001 --tenant-burst=2 \
  < "$quota_session" > "$quota_responses" \
  || fail "quota session did not complete cleanly"
[[ "$(wc -l < "$quota_responses")" -eq 4 ]] \
  || fail "expected 4 quota-session responses, got $(wc -l < "$quota_responses")"
sed -n '2p' "$quota_responses" | grep -q '"ok":true' \
  || fail "request within the tenant burst was refused"
sed -n '3p' "$quota_responses" | grep -q '"code":"quota_exceeded"' \
  || fail "request over the tenant burst was not refused with quota_exceeded"
sed -n '4p' "$quota_responses" | grep -q '"drained":true' \
  || fail "quota session shutdown missing drained:true"

# 8. Out-of-range numbers: a thread count no server could allocate is
#    invalid_params — the process neither aborts nor drops the session —
#    and the next request on the same server is answered normally.
range_session="$workdir/range_session.jsonl"
cat > "$range_session" <<EOF
{"schema_version":2,"id":1,"verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":2,"id":2,"verb":"assess_risk","params":{"dataset":"$key","threads":1e12}}
{"schema_version":2,"id":3,"verb":"assess_risk","params":{"dataset":"$key"}}
{"schema_version":2,"id":4,"verb":"shutdown"}
EOF
range_responses="$workdir/range_responses.jsonl"
timeout 120 "$CLI" serve < "$range_session" > "$range_responses" \
  || fail "out-of-range session did not exit cleanly"
[[ "$(wc -l < "$range_responses")" -eq 4 ]] \
  || fail "expected 4 out-of-range-session responses, got $(wc -l < "$range_responses")"
sed -n '2p' "$range_responses" | grep -q '"code":"invalid_params"' \
  || fail "threads=1e12 was not refused with invalid_params: $(sed -n '2p' "$range_responses")"
sed -n '3p' "$range_responses" | grep -q '"id":3,"ok":true' \
  || fail "request after the out-of-range one was not answered ok"
sed -n '4p' "$range_responses" | grep -q '"drained":true' \
  || fail "out-of-range session shutdown missing drained:true"

# 9. Engine refusals are the request's fault, not the server's: an exact
#    estimate whose matching-cover block exceeds the Ryser cutoff
#    (OutOfRange) and a weighted adversary on a non-O-estimate engine
#    (Unimplemented) answer invalid_params, as single requests and as
#    batch items; the next request is ok and the server drains. Items
#    0..29 with supports 1..30 over 32 transactions (plus item 30 in
#    every one) chain into one band block of 30 > the cutoff of 22.
band="$workdir/band.dat"
for t in $(seq 0 31); do
  line=""
  for i in $(seq "$t" 29); do line+="$i "; done
  echo "${line}30"
done > "$band"
band_key="$(printf '%s\n' \
  "{\"schema_version\":2,\"id\":0,\"verb\":\"load_dataset\",\"params\":{\"path\":\"$band\"}}" \
  "{\"schema_version\":2,\"id\":0,\"verb\":\"shutdown\"}" \
  | timeout 60 "$CLI" serve \
  | sed -n 's/.*"dataset":"\([0-9a-f]*\)".*/\1/p' | head -1)"
[[ "$band_key" =~ ^[0-9a-f]{16}$ ]] \
  || fail "could not learn band dataset key (got '$band_key')"
refusal_session="$workdir/refusal_session.jsonl"
cat > "$refusal_session" <<EOF
{"schema_version":2,"id":1,"verb":"load_dataset","params":{"path":"$band"}}
{"schema_version":2,"id":2,"verb":"assess_risk","params":{"dataset":"$band_key","estimator":"exact"}}
{"schema_version":2,"id":3,"verb":"assess_risk","params":{"dataset":"$band_key","estimator":"auto","adversary":"probabilistic"}}
{"schema_version":2,"id":4,"verb":"assess_risk_batch","params":{"dataset":"$band_key","items":[{"estimator":"exact"},{"estimator":"sampler","adversary":"probabilistic"}]}}
{"schema_version":2,"id":5,"verb":"assess_risk","params":{"dataset":"$band_key"}}
{"schema_version":2,"id":6,"verb":"shutdown"}
EOF
refusal_responses="$workdir/refusal_responses.jsonl"
timeout 120 "$CLI" serve < "$refusal_session" > "$refusal_responses" \
  || fail "engine-refusal session did not exit cleanly"
[[ "$(wc -l < "$refusal_responses")" -eq 6 ]] \
  || fail "expected 6 engine-refusal responses, got $(wc -l < "$refusal_responses")"
sed -n '2p' "$refusal_responses" | grep -q '"code":"invalid_params"' \
  || fail "exact past the Ryser cutoff was not invalid_params: $(sed -n '2p' "$refusal_responses")"
sed -n '3p' "$refusal_responses" | grep -q '"code":"invalid_params"' \
  || fail "weighted adversary with estimator=auto was not invalid_params: $(sed -n '3p' "$refusal_responses")"
[[ "$(sed -n '4p' "$refusal_responses" | grep -o '"code":"invalid_params"' | wc -l)" -eq 2 ]] \
  || fail "batch refusals were not two invalid_params envelopes: $(sed -n '4p' "$refusal_responses")"
sed -n '5p' "$refusal_responses" | grep -q '"id":5,"ok":true' \
  || fail "request after the engine refusals was not answered ok"
sed -n '6p' "$refusal_responses" | grep -q '"drained":true' \
  || fail "engine-refusal session shutdown missing drained:true"

echo "check_serve: OK (key=$key; reports bit-identical at 1 and 8 threads; caches hit; debug verb live; server_info + batch + quotas probed; out-of-range params and engine refusals are invalid_params; drained)"
