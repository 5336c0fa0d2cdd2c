#!/usr/bin/env bash
# End-to-end validation of the defense optimizer surface:
#   1. `recommend-defense` sweeps every registered scheme and prints a
#      frontier table plus a baseline line on the fixed dataset,
#   2. `--json` is byte-identical at 1, 2, 3 and 8 threads (the
#      optimizer's determinism contract), also on a singleton-transaction
#      dataset whose merge candidates fail in the realization walk, and
#      at 1 and 4 threads under `--prefer-sampler` on a dataset where two
#      candidates release the same sampled table,
#   3. `defend --mode=suppress` at each of the sweep's suppression
#      tolerances plans what the sweep's candidate planned: the same
#      dropped-item count, or the same cap error (the sweep plans the
#      tolerances as one ladder, `defend` plans one point),
#   4. `--csv` emits one row per candidate with the documented header,
#   5. the frontier document is internally consistent: every frontier
#      entry points at a feasible candidate flagged on_frontier, no
#      feasible candidate outside it dominates one inside,
#   6. the serve verb `recommend_defense` (v2) embeds exactly the
#      frontier document the CLI prints, and server_info advertises
#      the verb.
#
# Usage:
#   scripts/check_defense.sh [path/to/anonsafe]
#
# Exits non-zero on the first failed check.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/src/tools/anonsafe}"
if [[ ! -x "$CLI" ]]; then
  echo "check_defense: CLI not found at $CLI (build first)" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
data="$workdir/sample.dat"

fail() { echo "check_defense: FAIL: $*" >&2; exit 1; }

# The same deterministic 12-transaction / 5-item dataset check_serve.sh
# uses: three frequency groups, one rare item, everything exact.
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

# ------------------------------------------------- 1. human-readable sweep
out="$workdir/human.txt"
timeout 120 "$CLI" recommend-defense "$data" > "$out" \
  || fail "recommend-defense exited non-zero"
grep -q "swept " "$out" || fail "missing sweep summary line"
grep -q "baseline" "$out" || fail "missing baseline line"
grep -qi "scheme" "$out" || fail "missing frontier table header"

# --------------------------------------- 2. thread-count byte identity
# Item i alone in 3i singleton transactions (i = 1..12): every holder
# has size 1, so merges that lower a support are infeasible, and the
# reasons must not depend on which thread scored the candidate.
singletons="$workdir/singletons.dat"
for i in $(seq 1 12); do
  for _ in $(seq 1 $((3 * i))); do echo "$i"; done
done > "$singletons"
for t in 1 2 3 8; do
  timeout 120 "$CLI" recommend-defense "$data" --json --threads=$t \
    > "$workdir/t$t.json" || fail "--json --threads=$t failed"
  timeout 120 "$CLI" recommend-defense "$singletons" --json --threads=$t \
    > "$workdir/s$t.json" || fail "singletons --json --threads=$t failed"
done
for t in 2 3 8; do
  diff -q "$workdir/t1.json" "$workdir/t$t.json" >/dev/null \
    || fail "frontier JSON differs between 1 and $t threads"
  diff -q "$workdir/s1.json" "$workdir/s$t.json" >/dev/null \
    || fail "singletons frontier JSON differs between 1 and $t threads"
done
grep -q '"reason":"cannot lower support of item [0-9]* without emptying transactions"' \
  "$workdir/s1.json" || fail "singletons sweep has no 'cannot lower support' reason"

# Six items whose two coarsest suppression rungs suppress nothing, so
# they release the same table. Under --prefer-sampler at
# --ryser-cutoff=2 that table has a sampler block: the second rung is
# scored on its own sampler stream instead of taking the first's score,
# and the document must still not depend on the thread count.
shared="$workdir/shared.dat"
cat > "$shared" <<'EOF'
4
1 3
4
2 5 6
5
3 4 6
2 3 4
2
4 5 6
3 4 6
1 3
1 5 6
3
EOF
for t in 1 4; do
  timeout 120 "$CLI" recommend-defense "$shared" --json --prefer-sampler \
    --ryser-cutoff=2 --threads=$t > "$workdir/p$t.json" \
    || fail "--prefer-sampler --threads=$t failed"
done
diff -q "$workdir/p1.json" "$workdir/p4.json" >/dev/null \
  || fail "--prefer-sampler frontier JSON differs between 1 and 4 threads"

# ------------------------------------------ 3. single point vs ladder
timeout 120 "$CLI" recommend-defense "$shared" --json > "$workdir/d1.json" \
  || fail "shared --json failed"
if command -v python3 >/dev/null 2>&1; then
  # <dataset>:<its sweep document>
  for fixture in "$data:t1" "$singletons:s1" "$shared:d1"; do
    dataset="${fixture%:*}"
    # One line per suppression candidate: "<tolerance> <dropped items>"
    # when feasible, "<tolerance> error: <reason>" when not.
    python3 - "$workdir/${fixture##*:}.json" > "$workdir/ladder.txt" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for c in doc["candidates"]:
    if c["scheme"] != "suppression":
        continue
    tau = c["params"]["tolerance"]
    if c["feasible"]:
        print(tau, c["plan"]["suppressed_items"])
    else:
        print(tau, "error:", c["reason"])
PY
    [[ $(wc -l < "$workdir/ladder.txt") -eq 8 ]] \
      || fail "$dataset: expected 8 suppression candidates"
    while read -r tau expected; do
      if got="$("$CLI" defend "$dataset" "$workdir/defended.dat" \
                 --mode=suppress --tolerance="$tau" 2>&1)"; then
        got="$(sed -n 's/^suppression defense: dropped \([0-9]*\) of .*/\1/p' \
               <<< "$got")"
      else
        got="error: $(sed -n 's/^error: FailedPrecondition: //p' <<< "$got")"
      fi
      [[ "$got" == "$expected" ]] \
        || fail "$dataset: defend --tolerance=$tau gave '$got'," \
                "the sweep planned '$expected'"
    done < "$workdir/ladder.txt"
  done
else
  echo "check_defense: note: python3 unavailable, skipping ladder checks"
fi

# ------------------------------------------------------------- 4. CSV
timeout 120 "$CLI" recommend-defense "$data" --csv="$workdir/sweep.csv" \
  >/dev/null || fail "--csv failed"
head -1 "$workdir/sweep.csv" | grep -q \
  "^index,scheme,params,feasible,on_frontier,expected_cracks,total_loss" \
  || fail "unexpected CSV header: $(head -1 "$workdir/sweep.csv")"

if command -v python3 >/dev/null 2>&1; then
  # Row count = one per candidate plus the header.
  python3 - "$workdir/t1.json" "$workdir/sweep.csv" <<'PY'
import csv, json, sys
doc = json.load(open(sys.argv[1]))
rows = list(csv.reader(open(sys.argv[2])))
assert len(rows) == doc["num_candidates"] + 1, \
    f"csv rows {len(rows)-1} != candidates {doc['num_candidates']}"
PY

  # --------------------------------- 5. frontier internal consistency
  python3 - "$workdir/t1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
cands = doc["candidates"]
frontier = doc["frontier"]
assert doc["frontier_size"] == len(frontier) > 0, "empty frontier"
assert doc["feasible_candidates"] == sum(c["feasible"] for c in cands)
members = set()
for p in frontier:
    c = cands[p["candidate"]]
    assert c["feasible"] and c["on_frontier"], p
    assert c["scheme"] == p["scheme"] and c["params"] == p["params"], p
    assert c["risk"]["expected_cracks"] == p["expected_cracks"], p
    assert c["utility"]["total_loss"] == p["total_loss"], p
    members.add(p["candidate"])
# No feasible candidate outside the frontier may dominate a member.
for c in cands:
    if not c["feasible"] or c["index"] in members:
        continue
    for p in frontier:
        dom = (c["risk"]["expected_cracks"] <= p["expected_cracks"]
               and c["utility"]["total_loss"] <= p["total_loss"]
               and (c["risk"]["expected_cracks"] < p["expected_cracks"]
                    or c["utility"]["total_loss"] < p["total_loss"]))
        assert not dom, f"candidate {c['index']} dominates frontier point {p}"
# Frontier sorted by (risk asc, loss asc).
keys = [(p["expected_cracks"], p["total_loss"]) for p in frontier]
assert keys == sorted(keys), "frontier not sorted"
PY
else
  echo "check_defense: note: python3 unavailable, skipping JSON checks"
fi

# ---------------------------------------------------- 6. serve parity
key="$(printf '%s\n' \
  "{\"schema_version\":1,\"id\":0,\"verb\":\"load_dataset\",\"params\":{\"path\":\"$data\"}}" \
  "{\"schema_version\":1,\"id\":0,\"verb\":\"shutdown\"}" \
  | timeout 60 "$CLI" serve \
  | sed -n 's/.*"dataset":"\([0-9a-f]*\)".*/\1/p' | head -1)"
[[ "$key" =~ ^[0-9a-f]{16}$ ]] || fail "could not learn dataset key (got '$key')"

session="$workdir/session.jsonl"
cat > "$session" <<EOF
{"schema_version":1,"id":1,"verb":"load_dataset","params":{"path":"$data"}}
{"schema_version":2,"id":2,"verb":"recommend_defense","params":{"dataset":"$key","threads":8,"seed":7}}
{"schema_version":2,"id":3,"verb":"server_info"}
{"schema_version":1,"id":4,"verb":"shutdown"}
EOF
responses="$workdir/responses.jsonl"
timeout 120 "$CLI" serve < "$session" > "$responses" \
  || fail "serve session did not complete cleanly"

for i in 1 2 3 4; do
  sed -n "${i}p" "$responses" | grep -q "\"id\":$i,\"ok\":true" \
    || fail "response $i missing or not ok: $(sed -n "${i}p" "$responses")"
done

# The v2 response embeds the frontier as the last result member, so the
# document is the suffix between "frontier": and the envelope's }}.
sed -n '2p' "$responses" \
  | sed 's/.*"frontier":\({.*}\)}}$/\1/' > "$workdir/srv.json"
timeout 120 "$CLI" recommend-defense "$data" --json --seed=7 --threads=8 \
  > "$workdir/cli.json"
diff -q "$workdir/srv.json" "$workdir/cli.json" >/dev/null \
  || { diff "$workdir/srv.json" "$workdir/cli.json" >&2 || true
       fail "serve frontier differs from CLI --json"; }

sed -n '3p' "$responses" | grep -q '"recommend_defense"' \
  || fail "server_info does not advertise recommend_defense"

echo "check_defense: OK (sweep, thread identity, single point vs ladder, CSV, frontier invariants, serve parity)"
