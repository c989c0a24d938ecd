#!/usr/bin/env bash
# The README's 2-server quickstart (DESIGN.md §5), end to end, against a
# build directory: generate a document, produce key material, encode two
# share slices, serve each over its own unix socket, query through the
# concurrent fan-out session — and assert the answer matches a local
# single-server run of the same query, and the same two slice files opened
# locally. Then mutations, a 2-shard corpus, degraded mode and the usage
# errors of ssdb_query. Registered as a ctest (label `tools`).
#
#   tools/quickstart_2server.sh [BUILD_DIR]   # default: build

set -eu

build_dir="${1:-build}"
cd "$(dirname "$0")/.."
build_dir="$(cd "$build_dir" && pwd)"

work="$(mktemp -d /tmp/ssdb_quickstart.XXXXXX)"
pids=""
cleanup() {
  for pid in $pids; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

cd "$work"
query="/site//person"

"$build_dir/ssdb_xmlgen" --kb 64 --out doc.xml
"$build_dir/ssdb_keygen" --map map.properties --seed seed.key
"$build_dir/ssdb_encode" --map map.properties --seed seed.key \
    --xml doc.xml --out db.ssdb --servers=2

# The two slice files opened locally (before any server has them open),
# through the same fan-out the --connect client uses.
"$build_dir/ssdb_query" --db db.ssdb --servers=2 \
    --map map.properties --seed seed.key "$query" | tee local_two.out

"$build_dir/ssdb_server" --db db.ssdb --servers=2 --share-index=0 \
    --socket "$work/s0.sock" &
pids="$pids $!"
"$build_dir/ssdb_server" --db db.ssdb --servers=2 --share-index=1 \
    --socket "$work/s1.sock" &
pids="$pids $!"

for _ in $(seq 50); do
  [ -S "$work/s0.sock" ] && [ -S "$work/s1.sock" ] && break
  sleep 0.1
done

"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key "$query" | tee two_server.out

# Reference: the same query over the slice files opened locally as one
# 2-server fan-out must agree with a fresh single-server encode.
"$build_dir/ssdb_encode" --map map.properties --seed seed.key \
    --xml doc.xml --out db1.ssdb >/dev/null
"$build_dir/ssdb_query" --db db1.ssdb --map map.properties --seed seed.key \
    "$query" | tee one_server.out

# Aggregate the same query server-side (DESIGN.md §8): each of the two
# servers folds its aggregate-column slice and returns one masked word —
# the count must equal the number of pre values the fetch path returned.
"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key --stats \
    "count($query)" | tee two_server_count.out

remote_pre="$(grep '  pre:' two_server.out)"
local_pre="$(grep '  pre:' one_server.out)"
if [ "$remote_pre" != "$local_pre" ]; then
  echo "MISMATCH: 2-server fan-out and single-server disagree"
  echo "  2-server: $remote_pre"
  echo "  1-server: $local_pre"
  exit 1
fi
local_two_pre="$(grep '  pre:' local_two.out)"
if [ "$local_two_pre" != "$remote_pre" ]; then
  echo "MISMATCH: --db --servers=2 and --connect disagree"
  echo "  --db:      $local_two_pre"
  echo "  --connect: $remote_pre"
  exit 1
fi
if ! grep -q 'per-server trips:' two_server.out; then
  echo "MISSING: per-server round-trip stats not reported"
  exit 1
fi

agg_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' two_server_count.out)"
result_count="$(sed -n 's/^  \([0-9]*\) result(s).*/\1/p' two_server.out)"
if [ -z "$agg_count" ] || [ "$agg_count" != "$result_count" ]; then
  echo "MISMATCH: count($query) = '$agg_count' but fetch returned" \
       "'$result_count' results"
  exit 1
fi
if ! grep -q 'result_size=1 (groups)' two_server_count.out; then
  echo "MISSING: aggregate --stats did not report result_size in groups"
  exit 1
fi

# --- mid-run UPDATE (DESIGN.md §12) -----------------------------------------
# Mutate the live deployment: re-tag one person through the 2-server
# fan-out (a two-phase commit across both slices), re-assert count() on
# the same servers, then re-tag it back and re-assert the original count.
person_pre="$(sed -n 's/^  pre: *\([0-9]*\).*/\1/p' two_server.out)"
if [ -z "$person_pre" ]; then
  echo "MISSING: could not pick a person pre from the fetch output"
  exit 1
fi

"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key \
    --set "$person_pre privacy" "count($query)" | tee retag_count.out
if ! grep -q "update pre=$person_pre committed: version=1" retag_count.out; then
  echo "MISSING: UPDATE did not report a committed version-1 mutation"
  exit 1
fi
retag_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' retag_count.out)"
if [ -z "$retag_count" ] || [ "$retag_count" != "$((agg_count - 1))" ]; then
  echo "MISMATCH: count($query) after UPDATE = '$retag_count', want" \
       "$((agg_count - 1))"
  exit 1
fi

"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key \
    --set "$person_pre person" "count($query)" | tee restore_count.out
restore_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' restore_count.out)"
if [ -z "$restore_count" ] || [ "$restore_count" != "$agg_count" ]; then
  echo "MISMATCH: count($query) after restoring the tag = '$restore_count'," \
       "want $agg_count"
  exit 1
fi

# --- INSERT then DELETE over --connect (DESIGN.md §12) ----------------------
# Insert a person under a leaf (a city has no element children, so the new
# node lands at the city's pre + 1), find it, delete it again, and the
# original count() must come back.
"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key "/site//city" > cities.out
city_pre="$(sed -n 's/^  pre: *\([0-9]*\).*/\1/p' cities.out)"
if [ -z "$city_pre" ]; then
  echo "MISSING: could not pick a city pre from the fetch output"
  exit 1
fi
"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key \
    --insert "$city_pre <person/>" "count($query)" "/site//city/person" \
    | tee insert_count.out
insert_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' insert_count.out)"
if [ -z "$insert_count" ] || [ "$insert_count" != "$((agg_count + 1))" ]; then
  echo "MISMATCH: count($query) after INSERT = '$insert_count', want" \
       "$((agg_count + 1))"
  exit 1
fi
inserted_pre="$(sed -n 's/^  pre: *\([0-9]*\).*/\1/p' insert_count.out)"
if [ "$inserted_pre" != "$((city_pre + 1))" ]; then
  echo "MISMATCH: inserted person at pre '$inserted_pre', want" \
       "$((city_pre + 1))"
  exit 1
fi
"$build_dir/ssdb_query" --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key \
    --delete "$inserted_pre" "count($query)" | tee delete_count.out
if ! grep -q "delete pre=$inserted_pre committed: version=" delete_count.out
then
  echo "MISSING: DELETE did not report a committed mutation"
  exit 1
fi
delete_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' delete_count.out)"
if [ -z "$delete_count" ] || [ "$delete_count" != "$agg_count" ]; then
  echo "MISMATCH: count($query) after INSERT + DELETE = '$delete_count'," \
       "want $agg_count"
  exit 1
fi

# --- local catalog (DESIGN.md §10) ------------------------------------------
# A --local catalog opens slice files directly; db1.ssdb is the
# single-server reference encode, which no running server has open.
cat > catalog_local.json <<EOF
{
  "version": 1,
  "documents": [
    {"id": "ref", "group": 0, "slices": ["$work/db1.ssdb"]}
  ]
}
EOF
"$build_dir/ssdb_query" --catalog catalog_local.json --local --doc ref \
    --map map.properties --seed seed.key "$query" | tee catalog_local.out
catalog_pre="$(grep '  pre:' catalog_local.out)"
if [ "$catalog_pre" != "$local_pre" ]; then
  echo "MISMATCH: --catalog --local --doc and --db disagree"
  echo "  catalog: $catalog_pre"
  echo "  --db:    $local_pre"
  exit 1
fi

# --- 2-shard corpus (DESIGN.md §10) -----------------------------------------
# Grow the deployment into a corpus: a second document in its own server
# group, a shard catalog served by ssdb_router, and one corpus-wide count()
# through the router that must equal the sum of the per-document answers.
"$build_dir/ssdb_xmlgen" --kb 48 --seed 7 --out doc2.xml
"$build_dir/ssdb_encode" --map map.properties --seed seed.key \
    --xml doc2.xml --out db2.ssdb --servers=2

"$build_dir/ssdb_server" --db db2.ssdb --servers=2 --share-index=0 \
    --socket "$work/s2.sock" &
s2_pid=$!
pids="$pids $s2_pid"
"$build_dir/ssdb_server" --db db2.ssdb --servers=2 --share-index=1 \
    --socket "$work/s3.sock" &
pids="$pids $!"

cat > catalog.json <<EOF
{
  "version": 1,
  "documents": [
    {"id": "doc1", "group": 0, "slices": ["$work/s0.sock", "$work/s1.sock"]},
    {"id": "doc2", "group": 1, "slices": ["$work/s2.sock", "$work/s3.sock"]}
  ]
}
EOF
# --admin-port 0 also starts the health monitor (DESIGN.md §11); the
# ephemeral port is scraped from the startup line below.
"$build_dir/ssdb_router" --catalog catalog.json --socket "$work/router.sock" \
    --admin-port 0 --probe-interval-ms 200 --fall 2 > router.log &
pids="$pids $!"

for _ in $(seq 50); do
  [ -S "$work/s2.sock" ] && [ -S "$work/s3.sock" ] && \
      [ -S "$work/router.sock" ] && break
  sleep 0.1
done

# Per-document ground truth, straight at each group.
"$build_dir/ssdb_query" --connect "$work/s2.sock,$work/s3.sock" \
    --map map.properties --seed seed.key "count($query)" | tee doc2_count.out
doc2_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' doc2_count.out)"

# Corpus-wide count() through the router-served catalog.
"$build_dir/ssdb_query" --router "$work/router.sock" --corpus \
    --map map.properties --seed seed.key "count($query)" | tee corpus_count.out
corpus_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' corpus_count.out)"

if ! grep -q 'corpus: 2 doc(s), 2 group(s)' corpus_count.out; then
  echo "MISSING: corpus query did not report 2 documents in 2 groups"
  exit 1
fi
expected_corpus=$((agg_count + doc2_count))
if [ -z "$corpus_count" ] || [ "$corpus_count" != "$expected_corpus" ]; then
  echo "MISMATCH: corpus count($query) = '$corpus_count' but the shards" \
       "answered $agg_count + $doc2_count = $expected_corpus"
  exit 1
fi

# --- degraded mode + admin API (DESIGN.md §11) ------------------------------
# Kill one of doc2's share servers mid-run: the router's monitor must
# report it down on GET /v1/servers, corpus queries without --partial must
# fail (exit 1), and --partial must answer from doc1 alone while naming
# doc2 as missing.

admin_port=""
for _ in $(seq 50); do
  admin_port="$(sed -n 's/^admin API on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      router.log)"
  [ -n "$admin_port" ] && break
  sleep 0.1
done
if [ -z "$admin_port" ]; then
  echo "MISSING: router did not announce its admin API port"
  exit 1
fi

# curl-free admin client; prints the body of a 200 response.
admin_get() {
  python3 - "$admin_port" "$1" <<'EOF'
import http.client, sys
conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=5)
conn.request("GET", sys.argv[2])
resp = conn.getresponse()
body = resp.read().decode()
if resp.status != 200:
    sys.exit(f"GET {sys.argv[2]} -> {resp.status}: {body}")
print(body)
EOF
}

# The three endpoints answer parseable JSON before anything is killed.
admin_get /v1/stats    | python3 -c 'import json,sys; json.load(sys.stdin)'
admin_get /v1/catalog  | python3 -c 'import json,sys; json.load(sys.stdin)'
admin_get /v1/servers  | python3 -c 'import json,sys; json.load(sys.stdin)'

# State of the monitor target for a given endpoint path.
server_state() {
  admin_get /v1/servers | python3 -c '
import json, sys
doc = json.load(sys.stdin)
states = {s["endpoint"]: s["state"] for s in doc["servers"]}
print(states.get(sys.argv[1], "?"))' "$1"
}

kill "$s2_pid"
state=""
for _ in $(seq 100); do
  state="$(server_state "$work/s2.sock")"
  [ "$state" = "down" ] && break
  sleep 0.1
done
if [ "$state" != "down" ]; then
  echo "MISSING: /v1/servers never reported $work/s2.sock down (last: $state)"
  exit 1
fi
if [ "$(server_state "$work/s0.sock")" != "up" ]; then
  echo "MISMATCH: untouched server $work/s0.sock is not up"
  exit 1
fi

# All-or-nothing corpus query fails with the uniform data-error status.
set +e
"$build_dir/ssdb_query" --router "$work/router.sock" --corpus \
    --map map.properties --seed seed.key "count($query)" \
    > strict_degraded.out 2>&1
strict_rc=$?
set -e
if [ "$strict_rc" != 1 ]; then
  echo "MISMATCH: corpus query with a dead group exited $strict_rc, want 1"
  cat strict_degraded.out
  exit 1
fi

# --partial answers from the surviving group and names the missing doc.
"$build_dir/ssdb_query" --router "$work/router.sock" --corpus --partial \
    --map map.properties --seed seed.key "count($query)" 2>partial.err \
    | tee partial_count.out
partial_count="$(sed -n 's/.*count = \([0-9]*\) in.*/\1/p' partial_count.out)"
if ! grep -q 'corpus: 1 doc(s), 1 group(s), PARTIAL' partial_count.out; then
  echo "MISSING: --partial did not report a 1-doc PARTIAL corpus"
  exit 1
fi
if ! grep -q 'missing doc2 (group 1)' partial_count.out; then
  echo "MISSING: --partial did not name doc2 as the missing document"
  exit 1
fi
if [ -z "$partial_count" ] || [ "$partial_count" != "$agg_count" ]; then
  echo "MISMATCH: partial corpus count = '$partial_count' but doc1 alone" \
       "answered $agg_count"
  exit 1
fi

# Uniform exit statuses (DESIGN.md §11): usage errors exit 2 — including
# flags the chosen mode would otherwise ignore.
expect_usage_error() {
  local what="$1"
  shift
  set +e
  "$build_dir/ssdb_query" "$@" >/dev/null 2>&1
  local rc=$?
  set -e
  if [ "$rc" != 2 ]; then
    echo "MISMATCH: $what exited $rc, want 2"
    exit 1
  fi
}
expect_usage_error "unknown flag" --no-such-flag
expect_usage_error "--full-verify with --catalog" --catalog catalog.json \
    --full-verify --map map.properties --seed seed.key "$query"
expect_usage_error "--full-verify with --router" \
    --router "$work/router.sock" --full-verify \
    --map map.properties --seed seed.key "$query"
expect_usage_error "--servers with --connect" --servers=2 \
    --connect "$work/s0.sock,$work/s1.sock" \
    --map map.properties --seed seed.key "$query"
expect_usage_error "--servers with --catalog" --servers=2 \
    --catalog catalog.json --map map.properties --seed seed.key "$query"

echo "quickstart OK: 2-server fan-out matches single-server results," \
     "count() agrees ($agg_count), 2-shard corpus count agrees" \
     "($corpus_count = $agg_count + $doc2_count), degraded corpus" \
     "answers $partial_count with doc2 reported down"
