#!/usr/bin/env bash
# CI gate for the srra workspace:
#   1. formatting          (cargo fmt --check)
#   2. lints as errors     (cargo clippy --workspace -- -D warnings)
#   3. doc warnings as errors (RUSTDOCFLAGS="-D warnings" cargo doc --no-deps)
#   4. tier-1 verification (cargo build --release && cargo test -q)
#   5. explore sweep bytes (a 1,512-point `srra explore` sweep with --jobs 1,
#                           2 and 4, the last more workers than CPUs, so
#                           workers share one kernel's costs by β vector:
#                           identical CSVs and cache files, and the cache
#                           matches a pinned sha256; then a warm re-run over
#                           that cache: all hits, the same CSV bytes and an
#                           unchanged cache; then a 48-point space that
#                           repeats a value on every axis, at --jobs 1 and
#                           2: 2 evaluations, identical CSVs of 2 distinct
#                           rows and 2 cached records; then the 1,512 points
#                           as one served `explore` batch on a fresh node, whose
#                           records match the pinned sha256; a copy of the
#                           node's shard files taken while it runs, which
#                           a warm `srra explore --cache-dir` answers all
#                           from, with the same CSV; and a second pass as
#                           `mexplore` that is all hits)
#   6. benchmark goldens   (perfbench's unit tests, then a short sweep_cold
#                           run, which exits 1 unless Table 1 and the sweep
#                           checksums match perfbench/golden/ bit for bit)
#   7. serve smoke test    (srra serve + srra query against a live socket,
#                           incl. a `ks` point at a budget of 2^32 answered
#                           feasible while the node keeps serving, one
#                           pipelined keep-alive connection, one
#                           raw-socket mget sent canonical and scrambled
#                           (reordered, spaced, an escaped name, an unknown
#                           member, trace first) that must get byte-identical
#                           replies, a JSON line one byte over the 64 MiB
#                           frame cap refused with the pinned error while
#                           the node keeps serving, a non-UTF-8 line answered
#                           with an error and the ping pipelined behind it
#                           with a pong, the same ops over the binary wire
#                           codec, and a malformed --trace id refused with
#                           exit 1 before any connection opens)
#   8. cluster smoke test  (two srra serve nodes + consistent-hash routed
#                           mget/explore through srra cluster, JSON and
#                           binary, the connection flag before and after
#                           the op; both nodes must receive traffic; a
#                           malformed --trace id fails as in step 7)
#   9. metrics smoke test  (traffic-driven telemetry scrape: JSON snapshot
#                           with non-zero counters + well-formed Prometheus
#                           exposition, folded into the steps above)
#  10. trace smoke test    (traced workloads against both steps: span
#                           waterfalls fetched after the fact via the trace
#                           op, slow-query pinning, histogram exemplars and
#                           the merged cluster-wide waterfall)
#  11. time-series smoke   (sampled nodes: the series op answers stored
#                           snapshots and windowed deltas, `cluster top
#                           --once` renders every node plus the fleet row,
#                           and a deliberately impossible SLO rule breaches)
#  12. self-healing smoke  (replicated cluster survives kill -9, an empty
#                           reborn node is healed by read-repair and
#                           converged by `cluster repair`; a rebalance onto
#                           the same nodes then stores nothing and sends no
#                           put; idle-connection reaping under
#                           --idle-timeout-secs)
#  13. code size           (prints ROADMAP's "Code size" figure, the
#                           non-test lines of crates/*/src and src, in total
#                           and per crate; reported, never gating)
#
# Every cargo step except fmt passes --locked: a change that would rewrite
# Cargo.lock or perfbench/Cargo.lock fails here instead of silently updating
# the lockfile.
#
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo '==> RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps'
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --quiet

echo "==> cargo build --locked --release --workspace"
# The root manifest's default-members already cover every member; --workspace
# keeps target/release/srra, which the smoke tests below drive, explicit.
cargo build --locked --release --workspace

echo "==> cargo test --locked -q"
cargo test --locked --workspace -q

echo "==> explore sweep bytes"
SRRA="target/release/srra"
SMOKE_DIR="$(mktemp -d)"
cleanup_smoke() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
  [ -n "${SWEEP_PID:-}" ] && kill "$SWEEP_PID" 2>/dev/null || true
  [ -n "${NODE_A_PID:-}" ] && kill "$NODE_A_PID" 2>/dev/null || true
  [ -n "${NODE_B_PID:-}" ] && kill "$NODE_B_PID" 2>/dev/null || true
  [ -n "${NODE_C_PID:-}" ] && kill "$NODE_C_PID" 2>/dev/null || true
  [ -n "${NODE_D_PID:-}" ] && kill "$NODE_D_PID" 2>/dev/null || true
  [ -n "${NODE_E_PID:-}" ] && kill "$NODE_E_PID" 2>/dev/null || true
  [ -n "${NODE_F_PID:-}" ] && kill "$NODE_F_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup_smoke EXIT
# Every kernel x allocator over budgets that include infeasible ones: the CSV
# and the cache file must not depend on --jobs, and the cache's bytes are
# pinned, so a change that moves any record fails here.  At --jobs 4 the
# workers outnumber the CPUs and race for each kernel's shared costs.
SWEEP_AXES="--kernel all --algos none,fr,pr,cpa,ks,greedy --budgets 1,4,8,16,32,64,128 --latencies 1,2,4 --devices xcv1000,xcv300"
for JOBS in 1 2 4; do
  "$SRRA" explore $SWEEP_AXES --csv --jobs "$JOBS" --cache "$SMOKE_DIR/sweep-$JOBS.jsonl" \
    > "$SMOKE_DIR/sweep-$JOBS.csv" 2> /dev/null
done
[ "$(wc -l < "$SMOKE_DIR/sweep-1.jsonl")" -eq 1512 ] \
  || { echo "explore sweep: expected 1512 records"; exit 1; }
for JOBS in 2 4; do
  cmp -s "$SMOKE_DIR/sweep-1.csv" "$SMOKE_DIR/sweep-$JOBS.csv" \
    || { echo "explore sweep: the CSV depends on --jobs ($JOBS)"; exit 1; }
  cmp -s "$SMOKE_DIR/sweep-1.jsonl" "$SMOKE_DIR/sweep-$JOBS.jsonl" \
    || { echo "explore sweep: the cache file depends on --jobs ($JOBS)"; exit 1; }
done
SWEEP_SHA256="f96a44436c68aea9dbaa625f2c85e7e5817a571fc451380d07caa9b01d9813ca"
echo "$SWEEP_SHA256  $SMOKE_DIR/sweep-1.jsonl" | sha256sum --check --quiet \
  || { echo "explore sweep: cache bytes changed"; exit 1; }
# Warm re-run over the pinned cache: every record loads back, every point is
# a hit, and neither the CSV nor the cache file moves by a byte.
"$SRRA" explore $SWEEP_AXES --csv --jobs 1 --cache "$SMOKE_DIR/sweep-1.jsonl" \
  --stats-json "$SMOKE_DIR/sweep-warm.json" > "$SMOKE_DIR/sweep-warm.csv" 2> /dev/null
cmp -s "$SMOKE_DIR/sweep-1.csv" "$SMOKE_DIR/sweep-warm.csv" \
  || { echo "explore sweep: the warm CSV differs from the cold one"; exit 1; }
grep -q '"cache_hits":1512,"evaluated":0' "$SMOKE_DIR/sweep-warm.json" \
  || { echo "explore sweep: the warm run missed the cache"; exit 1; }
echo "$SWEEP_SHA256  $SMOKE_DIR/sweep-1.jsonl" | sha256sum --check --quiet \
  || { echo "explore sweep: the warm run changed the cache"; exit 1; }
# A space that repeats a value on every axis (the XCV1000 also by its full
# part name): its 48 points name 2 canonicals, so each worker count
# evaluates 2 points, prints 2 distinct rows and caches 2 records.
TWIN_AXES="--kernel fir,fir --algos cpa,CPA-RA --budgets 32,32,64 --latencies 2,2 --devices xcv1000,XCV1000-BG560"
"$SRRA" explore $TWIN_AXES --csv --jobs 1 --stats-json "$SMOKE_DIR/twins-1.json" \
  > "$SMOKE_DIR/twins-1.csv" 2> /dev/null
"$SRRA" explore $TWIN_AXES --csv --jobs 2 --cache "$SMOKE_DIR/twins.jsonl" \
  --stats-json "$SMOKE_DIR/twins-2.json" > "$SMOKE_DIR/twins-2.csv" 2> /dev/null
for JOBS in 1 2; do
  grep -q '"points":48,"cache_hits":0,"evaluated":2,' "$SMOKE_DIR/twins-$JOBS.json" \
    || { echo "explore twins: expected 48 points and 2 evaluations (--jobs $JOBS)"; exit 1; }
done
cmp -s "$SMOKE_DIR/twins-1.csv" "$SMOKE_DIR/twins-2.csv" \
  || { echo "explore twins: the CSV depends on --jobs"; exit 1; }
[ "$(tail -n +2 "$SMOKE_DIR/twins-1.csv" | sort -u | grep -c .)" -eq 2 ] \
  || { echo "explore twins: expected 2 distinct CSV rows"; exit 1; }
[ "$(wc -l < "$SMOKE_DIR/twins.jsonl")" -eq 2 ] \
  || { echo "explore twins: expected 2 cached records"; exit 1; }
# The same points served as one batch: a fresh node evaluates all 1,512 and
# answers the explorer's records byte for byte, one record per line hashing
# to the pinned sha256; a second pass, batched as mexplore, is all hits.
"$SRRA" serve --addr 127.0.0.1:0 --shards 4 --cache-dir "$SMOKE_DIR/sweep-serve" \
  > "$SMOKE_DIR/sweep-serve.out" 2> /dev/null &
SWEEP_PID=$!
SWEEP_ADDR=""
for _ in $(seq 1 100); do
  SWEEP_ADDR="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/sweep-serve.out")"
  [ -n "$SWEEP_ADDR" ] && break
  sleep 0.1
done
[ -n "$SWEEP_ADDR" ] || { echo "explore sweep: the node never announced its address"; exit 1; }
"$SRRA" query --addr "$SWEEP_ADDR" explore $SWEEP_AXES > "$SMOKE_DIR/sweep-served.out"
grep -q '"evaluated":1512}$' "$SMOKE_DIR/sweep-served.out" \
  || { echo "explore sweep: the served batch did not evaluate 1512 points"; exit 1; }
sed 's/^{"ok":true,"records":\[//; s/\],"hits".*$//; s/},{/}\n{/g' "$SMOKE_DIR/sweep-served.out" \
  > "$SMOKE_DIR/sweep-served.jsonl"
echo "$SWEEP_SHA256  $SMOKE_DIR/sweep-served.jsonl" | sha256sum --check --quiet \
  || { echo "explore sweep: the served records differ from the explorer's"; exit 1; }
# The reply left after the node flushed its shards: a copy of the shard files
# taken now, while the node runs, answers the whole sweep warm.
mkdir "$SMOKE_DIR/sweep-copy"
cp "$SMOKE_DIR"/sweep-serve/shard-*.seg "$SMOKE_DIR/sweep-copy/"
"$SRRA" explore $SWEEP_AXES --csv --jobs 1 --cache-dir "$SMOKE_DIR/sweep-copy" --shards 4 \
  --stats-json "$SMOKE_DIR/sweep-copy.json" > "$SMOKE_DIR/sweep-copy.csv" 2> /dev/null
grep -q '"cache_hits":1512,"evaluated":0' "$SMOKE_DIR/sweep-copy.json" \
  || { echo "explore sweep: the running node's shard files miss records"; exit 1; }
cmp -s "$SMOKE_DIR/sweep-1.csv" "$SMOKE_DIR/sweep-copy.csv" \
  || { echo "explore sweep: the shard files' CSV differs from the explorer's"; exit 1; }
"$SRRA" query --addr "$SWEEP_ADDR" explore $SWEEP_AXES --batch \
  | grep -q '"hits":1512,"evaluated":0' \
  || { echo "explore sweep: the second served pass missed the cache"; exit 1; }
"$SRRA" query --addr "$SWEEP_ADDR" shutdown > /dev/null
wait "$SWEEP_PID"
SWEEP_PID=""

# perfbench is a Cargo workspace of its own, so the steps above never build it.
echo "==> perfbench unit tests"
cargo test --locked --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench sweep_cold golden checks"
cargo run --locked --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload sweep_cold --seconds 2

echo "==> serve smoke test"
# --slow-query-us 1 makes every evaluating request "slow", so the traced
# explore below must land in the flight recorder's pinned set.
"$SRRA" serve --addr 127.0.0.1:0 --shards 4 --cache-dir "$SMOKE_DIR/cache" \
  --slow-query-us 1 \
  > "$SMOKE_DIR/serve.out" 2> "$SMOKE_DIR/serve.err" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/serve.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve smoke: server never announced its address"; exit 1; }
# One miss (empty shards), one evaluation, then one hit of the same point.
"$SRRA" query --addr "$ADDR" get fir cpa 32 | grep -q '"found":false'
"$SRRA" query --addr "$ADDR" explore --kernel fir --algos cpa --budgets 32 \
  | grep -q '"evaluated":1'
"$SRRA" query --addr "$ADDR" get fir cpa 32 | grep -q '"found":true'
"$SRRA" query --addr "$ADDR" stats | grep -q '"records":1'
# A knapsack budget far past every upgrade the kernel can use is answered
# with a feasible record, and the node keeps serving.
"$SRRA" query --addr "$ADDR" explore --kernel fir --algos ks --budgets 4294967296 \
  --latencies 2 --devices xcv1000 | grep -q '"feasible":true.*"evaluated":1}$' \
  || { echo "serve smoke: the ks point at budget 2^32 was not answered"; exit 1; }
"$SRRA" query --addr "$ADDR" stats | grep -q '"ok":true' \
  || { echo "serve smoke: the node stopped serving after the ks point"; exit 1; }
# Pipelined keep-alive: several ops written over ONE connection before any
# reply is read (`query pipe`), replies strictly in request order.
FIR_CANON='kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560'
PIPE_OUT="$SMOKE_DIR/pipe.out"
{
  echo '{"op":"get","canonical":"'"$FIR_CANON"'"}'
  echo '{"op":"mget","canonicals":["'"$FIR_CANON"'","kernel=nope"]}'
  echo '{"op":"mexplore","points":[{"kernel":"mat","algo":"fr","budget":16},{"kernel":"nope","algo":"fr","budget":16}]}'
  echo '{"op":"stats"}'
} | "$SRRA" query --addr "$ADDR" pipe > "$PIPE_OUT"
[ "$(wc -l < "$PIPE_OUT")" -eq 4 ] || { echo "serve smoke: pipe reply count"; exit 1; }
sed -n '1p' "$PIPE_OUT" | grep -q '"found":true'
sed -n '2p' "$PIPE_OUT" | grep -q '"got":\[{.*,null\]'
sed -n '3p' "$PIPE_OUT" | grep -q '"outcomes":\[{"hit":false,.*{"error":"unknown kernel'
# The new per-op latency counters are present and non-zero for the ops above.
sed -n '4p' "$PIPE_OUT" | grep -q '"ops":{'
sed -n '4p' "$PIPE_OUT" | grep -Eq '"get":\{"count":[1-9]'
sed -n '4p' "$PIPE_OUT" | grep -Eq '"mget":\{"count":[1-9]'
sed -n '4p' "$PIPE_OUT" | grep -Eq '"mexplore":\{"count":[1-9]'
sed -n '4p' "$PIPE_OUT" | grep -Eq '"explore":\{"count":[1-9]'
# The server's JSON reader on a line no in-tree client writes: the same
# traced `mget` sent raw over one socket, once canonical and once with its
# members reversed, spaces around every token, an escaped member name, an
# unknown member and `trace` first.  The two replies must be byte-identical.
exec 8<>"/dev/tcp/127.0.0.1/${ADDR##*:}" \
  || { echo "serve smoke: raw JSON connection failed"; exit 1; }
printf '%s\n' '{"op":"mget","canonicals":["'"$FIR_CANON"'","kernel=nope"],"trace":"ci.json.1"}' >&8
IFS= read -r -t 10 RAW_CANONICAL <&8 \
  || { echo "serve smoke: no reply to the canonical raw line"; exit 1; }
printf '%s\n' '{ "trace" : "ci.json.1" , "x-unknown" : { "a" : [ 1 , -2.5e3 , null ] } , "canonical\u0073" : [ "'"$FIR_CANON"'" , "kernel=nope" ] , "op" : "mget" }' >&8
IFS= read -r -t 10 RAW_SCRAMBLED <&8 \
  || { echo "serve smoke: no reply to the scrambled raw line"; exit 1; }
exec 8<&- 8>&-
case "$RAW_CANONICAL" in
  '{"ok":true,"got":[{'*',null],"trace":"ci.json.1"}') ;;
  *) echo "serve smoke: unexpected raw mget reply: $RAW_CANONICAL"; exit 1 ;;
esac
[ "$RAW_CANONICAL" = "$RAW_SCRAMBLED" ] \
  || { echo "serve smoke: a scrambled JSON line got a different reply"; exit 1; }
# A JSON line one byte past the frame cap (MAX_FRAME_LEN, 64 MiB) with no
# newline: the server reads no further, answers the pinned error, closes the
# connection, counts one invalid request and keeps serving.
exec 8<>"/dev/tcp/127.0.0.1/${ADDR##*:}" \
  || { echo "serve smoke: raw long-line connection failed"; exit 1; }
head -c $((64 * 1024 * 1024 + 1)) /dev/zero | tr '\0' 'a' >&8
IFS= read -r -t 10 LONG_LINE_REPLY <&8 \
  || { echo "serve smoke: no reply to the over-long JSON line"; exit 1; }
exec 8<&- 8>&-
[ "$LONG_LINE_REPLY" = '{"ok":false,"error":"JSON request line longer than 67108864 bytes"}' ] \
  || { echo "serve smoke: unexpected over-long line reply: $LONG_LINE_REPLY"; exit 1; }
# A request line that is not UTF-8 is malformed like any other: one error
# reply naming UTF-8, and the connection stays open for the ping behind it.
exec 8<>"/dev/tcp/127.0.0.1/${ADDR##*:}" \
  || { echo "serve smoke: raw non-UTF-8 connection failed"; exit 1; }
printf '{"op":"get","canonical":"\377"}\n{"op":"ping"}\n' >&8
IFS= read -r -t 10 UTF8_ERROR <&8 \
  || { echo "serve smoke: no reply to the non-UTF-8 line"; exit 1; }
IFS= read -r -t 10 UTF8_PONG <&8 \
  || { echo "serve smoke: no reply to the ping behind the non-UTF-8 line"; exit 1; }
exec 8<&- 8>&-
case "$UTF8_ERROR" in
  '{"ok":false,"error":"JSON request line is not UTF-8'*) ;;
  *) echo "serve smoke: unexpected non-UTF-8 line reply: $UTF8_ERROR"; exit 1 ;;
esac
[ "$UTF8_PONG" = '{"ok":true,"pong":true}' ] \
  || { echo "serve smoke: unexpected reply behind the non-UTF-8 line: $UTF8_PONG"; exit 1; }
"$SRRA" query --addr "$ADDR" stats | grep -Eq '"invalid":\{"count":[1-9]' \
  || { echo "serve smoke: the over-long JSON line was not counted"; exit 1; }
# Binary wire codec: every deterministic op prints identical replies over
# both codecs (the server detects the codec per frame on the shared
# listener).  One JSON pass warms the cache first.  stats, metrics, series
# and trace are left out: their replies change between calls.
"$SRRA" query --addr "$ADDR" --binary get fir cpa 32 | grep -q '"found":true'
FIR_RECORD=$("$SRRA" query --addr "$ADDR" get fir cpa 32 \
  | sed -n 's/^{"ok":true,"found":true,"record":\(.*\)}$/\1/p')
[ -n "$FIR_RECORD" ] || { echo "serve smoke: no record in the get reply"; exit 1; }
CODEC_REQ="$SMOKE_DIR/codec.req"
{
  echo '{"op":"get","canonical":"'"$FIR_CANON"'"}'
  echo '{"op":"mget","canonicals":["'"$FIR_CANON"'","kernel=nope"]}'
  echo '{"op":"explore","points":[{"kernel":"fir","algo":"cpa","budget":32}]}'
  echo '{"op":"mexplore","points":[{"kernel":"mat","algo":"fr","budget":16},{"kernel":"nope","algo":"fr","budget":16}]}'
  echo '{"op":"put","records":['"$FIR_RECORD"']}'
  echo '{"op":"ping"}'
  echo '{"op":"digest"}'
  echo '{"op":"scan","shard":0,"limit":4}'
} > "$CODEC_REQ"
"$SRRA" query --addr "$ADDR" pipe < "$CODEC_REQ" > /dev/null
JPIPE_OUT="$SMOKE_DIR/pipe-json.out"
BPIPE_OUT="$SMOKE_DIR/pipe-binary.out"
"$SRRA" query --addr "$ADDR" pipe < "$CODEC_REQ" > "$JPIPE_OUT"
"$SRRA" query --addr "$ADDR" --binary pipe < "$CODEC_REQ" > "$BPIPE_OUT"
[ "$(wc -l < "$BPIPE_OUT")" -eq 8 ] || { echo "serve smoke: binary pipe reply count"; exit 1; }
sed -n '1p' "$BPIPE_OUT" | grep -q '"found":true'
sed -n '2p' "$BPIPE_OUT" | grep -q '"got":\[{.*,null\]'
sed -n '5p' "$BPIPE_OUT" | grep -q '"stored":0'
cmp -s "$JPIPE_OUT" "$BPIPE_OUT" \
  || { echo "serve smoke: binary and JSON replies differ"; exit 1; }
# Trace smoke: stamp a trace id on a cold explore, then fetch its span
# waterfall after the fact through the trace op.  The root spans the whole
# request; the engine stages and the render show up as indented children.
"$SRRA" query --addr "$ADDR" --trace ci.trace.1 explore \
  --kernel imi --algos cpa --budgets 8 \
  | grep -q '"evaluated":1' || { echo "trace smoke: traced explore"; exit 1; }
TRACE_OUT="$SMOKE_DIR/trace.out"
"$SRRA" query --addr "$ADDR" trace ci.trace.1 > "$TRACE_OUT"
grep -Eq '^trace ci\.trace\.1: [1-9][0-9]* span' "$TRACE_OUT" \
  || { echo "trace smoke: no spans retained"; exit 1; }
grep -q '^explore +' "$TRACE_OUT" \
  || { echo "trace smoke: root span missing"; exit 1; }
grep -q '^  engine.allocation +' "$TRACE_OUT" \
  || { echo "trace smoke: engine stage child missing"; exit 1; }
grep -q '^  render +' "$TRACE_OUT" \
  || { echo "trace smoke: render child missing"; exit 1; }
# The forced-slow traced request was logged with its top stage spans...
grep -q 'slow-query.*trace=ci.trace.1.*spans=' "$SMOKE_DIR/serve.err" \
  || { echo "trace smoke: slow-query log missing span note"; exit 1; }
# ...and an unknown id answers an empty waterfall, not an error.
"$SRRA" query --addr "$ADDR" trace ci.never.sent \
  | grep -q 'no spans retained' || { echo "trace smoke: unknown id"; exit 1; }
# A malformed --trace id is refused before dialing: exit 1 with a text that
# names the id, and the node's connection count rises only by the follow-up
# stats call's own connection.
BAD_TRACE_TEXT='error: invalid trace id `bad id`: want 1..=64 bytes of [A-Za-z0-9._-]'
connections() {
  "$SRRA" query --addr "$ADDR" stats | sed -n 's/.*"connections":\([0-9]*\).*/\1/p'
}
CONNECTIONS_BEFORE="$(connections)"
STATUS=0
"$SRRA" query --addr "$ADDR" --trace "bad id" stats > "$SMOKE_DIR/bad-trace.out" 2>&1 \
  || STATUS=$?
[ "$STATUS" -eq 1 ] && grep -Fqx "$BAD_TRACE_TEXT" "$SMOKE_DIR/bad-trace.out" \
  || { echo "trace smoke: bad --trace id (exit $STATUS)"; cat "$SMOKE_DIR/bad-trace.out"; exit 1; }
[ "$(connections)" -eq $((CONNECTIONS_BEFORE + 1)) ] \
  || { echo "trace smoke: a bad --trace id opened a connection"; exit 1; }
# Metrics smoke: after the mixed get/mget/mexplore traffic above, the JSON
# snapshot reports non-zero serve counters and the exploration-stage globals.
METRICS_OUT="$SMOKE_DIR/metrics.json"
"$SRRA" query --addr "$ADDR" metrics > "$METRICS_OUT"
grep -Eq '"serve_requests_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: no requests counted"; exit 1; }
grep -Eq '"serve_op_get_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: get ops not counted"; exit 1; }
grep -Eq '"serve_evaluated_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: evaluations not counted"; exit 1; }
grep -Eq '"explore_evaluations_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: engine stage counters missing"; exit 1; }
grep -Eq '"store_shard_reads_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: shard counters missing"; exit 1; }
grep -q '"histograms":{' "$METRICS_OUT" \
  || { echo "metrics smoke: histograms missing"; exit 1; }
# Both codec counters saw traffic (JSON queries above, binary get + pipe).
grep -Eq '"serve_codec_binary_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: binary codec counter is zero"; exit 1; }
grep -Eq '"serve_codec_json_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: json codec counter is zero"; exit 1; }
# The startup re-hydration histogram is registered and scraped.
grep -q '"store_rehydrate_us"' "$METRICS_OUT" \
  || { echo "metrics smoke: rehydrate histogram missing"; exit 1; }
# The slow traced explore above was pinned into the flight recorder.
grep -Eq '"serve_pinned_traces_total":[1-9]' "$METRICS_OUT" \
  || { echo "metrics smoke: slow trace was not pinned"; exit 1; }
# The Prometheus exposition is well-formed: typed families, cumulative
# buckets ending at +Inf, and a non-zero requests sample.
PROM_OUT="$SMOKE_DIR/metrics.prom"
"$SRRA" query --addr "$ADDR" metrics --prom > "$PROM_OUT"
grep -q '^# TYPE serve_requests_total counter' "$PROM_OUT" \
  || { echo "metrics smoke: exposition TYPE line"; exit 1; }
grep -q '^# TYPE serve_op_get_latency_us histogram' "$PROM_OUT" \
  || { echo "metrics smoke: exposition histogram family"; exit 1; }
grep -q 'serve_op_get_latency_us_bucket{le="+Inf"}' "$PROM_OUT" \
  || { echo "metrics smoke: exposition +Inf bucket"; exit 1; }
grep -Eq '^serve_requests_total [1-9]' "$PROM_OUT" \
  || { echo "metrics smoke: exposition sample is zero"; exit 1; }
grep -q '^# HELP serve_requests_total ' "$PROM_OUT" \
  || { echo "metrics smoke: exposition HELP line"; exit 1; }
# The traced request left its id on the latency bucket it landed in.
grep -q 'trace_id="ci.trace.1"' "$PROM_OUT" \
  || { echo "metrics smoke: exemplar missing"; exit 1; }
# Graceful shutdown: ack on the wire, clean exit, summary line, lock released.
"$SRRA" query --addr "$ADDR" shutdown | grep -q '"shutting_down":true'
wait "$SERVE_PID"
SERVE_PID=""
grep -q "srra-serve stopped" "$SMOKE_DIR/serve.out"
[ ! -e "$SMOKE_DIR/cache/LOCK" ] || { echo "serve smoke: LOCK left behind"; exit 1; }
# The evaluated records landed in the binary segment shard files: the
# canonical strings sit as raw UTF-8 bytes inside the record payloads, so a
# binary-tolerant grep finds them.  (grep reads the files itself: a
# `cat | grep -q` pipeline can trip pipefail when grep exits on the first
# match while cat is still writing the remaining shards.)
grep -aq 'kernel=fir;' "$SMOKE_DIR"/cache/shard-*.seg \
  || { echo "serve smoke: shards are empty"; exit 1; }
grep -aq 'kernel=mat;' "$SMOKE_DIR"/cache/shard-*.seg \
  || { echo "serve smoke: mexplore record missing"; exit 1; }

echo "==> cluster smoke test"
# Two independent serve nodes; the router splits the key space between them.
"$SRRA" serve --addr 127.0.0.1:0 --shards 2 --cache-dir "$SMOKE_DIR/node-a" \
  > "$SMOKE_DIR/node-a.out" 2> "$SMOKE_DIR/node-a.err" &
NODE_A_PID=$!
"$SRRA" serve --addr 127.0.0.1:0 --shards 2 --cache-dir "$SMOKE_DIR/node-b" \
  > "$SMOKE_DIR/node-b.out" 2> "$SMOKE_DIR/node-b.err" &
NODE_B_PID=$!
ADDR_A=""
ADDR_B=""
for _ in $(seq 1 100); do
  ADDR_A="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/node-a.out")"
  ADDR_B="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/node-b.out")"
  [ -n "$ADDR_A" ] && [ -n "$ADDR_B" ] && break
  sleep 0.1
done
[ -n "$ADDR_A" ] && [ -n "$ADDR_B" ] \
  || { echo "cluster smoke: a node never announced its address"; exit 1; }
NODES="$ADDR_A,$ADDR_B"
CLUSTER_AXES="--kernel fir,mat,pat --algos fr,pr,cpa --budgets 8,16,32,64"
# Routed explore: 36 points, every one evaluated exactly once across the
# cluster (the ring sends each canonical to one owner).  36 keys also make
# the per-node traffic check below safe: even at the worst tested balance
# bound (a 2/3 key share), all keys landing on one node has probability
# ~(2/3)^36 < 1e-6.
"$SRRA" cluster --nodes "$NODES" explore $CLUSTER_AXES 2>/dev/null \
  | grep -q '"evaluated":36' || { echo "cluster smoke: explore"; exit 1; }
# Routed mget over the same grid: all 36 answered, none null.
"$SRRA" cluster --nodes "$NODES" mget $CLUSTER_AXES > "$SMOKE_DIR/cluster-mget.out"
grep -q '"got":\[{' "$SMOKE_DIR/cluster-mget.out" \
  || { echo "cluster smoke: mget shape"; exit 1; }
! grep -q 'null' "$SMOKE_DIR/cluster-mget.out" \
  || { echo "cluster smoke: mget returned a miss"; exit 1; }
# Both nodes received traffic: every node line reports evaluations.
"$SRRA" cluster --nodes "$NODES" stats > "$SMOKE_DIR/cluster-stats.out"
[ "$(grep -c '"up":true' "$SMOKE_DIR/cluster-stats.out")" -eq 2 ] \
  || { echo "cluster smoke: not all nodes up"; exit 1; }
! grep '"addr"' "$SMOKE_DIR/cluster-stats.out" | grep -q '"evaluated":0,' \
  || { echo "cluster smoke: a node received no explore traffic"; exit 1; }
grep -q '"nodes_up":2' "$SMOKE_DIR/cluster-stats.out" \
  || { echo "cluster smoke: totals line"; exit 1; }
grep -q '"total_evaluated":36' "$SMOKE_DIR/cluster-stats.out" \
  || { echo "cluster smoke: evaluated total"; exit 1; }
# Liveness probe answers for both nodes.
[ "$("$SRRA" cluster --nodes "$NODES" ping | grep -c '"up":true')" -eq 2 ] \
  || { echo "cluster smoke: ping"; exit 1; }
# Binary cluster round-trip: the same warm mget over `--binary` prints
# byte-identical output.
"$SRRA" cluster --nodes "$NODES" --binary mget $CLUSTER_AXES \
  > "$SMOKE_DIR/cluster-mget-binary.out"
cmp -s "$SMOKE_DIR/cluster-mget.out" "$SMOKE_DIR/cluster-mget-binary.out" \
  || { echo "cluster smoke: binary mget output differs"; exit 1; }
# The connection flags may also follow the op, as for `srra query`.
"$SRRA" cluster --nodes "$NODES" mget $CLUSTER_AXES --binary \
  > "$SMOKE_DIR/cluster-mget-trailing.out"
cmp -s "$SMOKE_DIR/cluster-mget.out" "$SMOKE_DIR/cluster-mget-trailing.out" \
  || { echo "cluster smoke: mget with trailing --binary differs"; exit 1; }
# Cluster-wide metrics scrape: both nodes answer, and the merged snapshot
# carries the routed traffic (36 evaluations summed across the nodes).
"$SRRA" cluster --nodes "$NODES" metrics > "$SMOKE_DIR/cluster-metrics.out"
[ "$(grep -c '"scraped":true' "$SMOKE_DIR/cluster-metrics.out")" -eq 2 ] \
  || { echo "cluster smoke: metrics scrape"; exit 1; }
grep -Eq '"serve_evaluated_total":3[6-9]' "$SMOKE_DIR/cluster-metrics.out" \
  || { echo "cluster smoke: merged evaluation counter"; exit 1; }
grep -Eq '"client_connects_total":[1-9]' "$SMOKE_DIR/cluster-metrics.out" \
  || { echo "cluster smoke: client-side counters missing"; exit 1; }
# Both codec counters are non-zero across the fleet: the JSON ops above and
# the binary mget round-trip each left their mark.
grep -Eq '"serve_codec_binary_total":[1-9]' "$SMOKE_DIR/cluster-metrics.out" \
  || { echo "cluster smoke: binary codec counter is zero"; exit 1; }
grep -Eq '"serve_codec_json_total":[1-9]' "$SMOKE_DIR/cluster-metrics.out" \
  || { echo "cluster smoke: json codec counter is zero"; exit 1; }
# Cluster trace smoke: a traced cold explore fans out under ONE trace id;
# afterwards `cluster trace` scrapes both flight recorders and merges the
# per-node subtrees into a single waterfall with engine-stage children.
"$SRRA" cluster --nodes "$NODES" --trace ci.cluster.t1 explore \
  --kernel imi,bic --algos cpa,fr --budgets 8,16,32,64 2>/dev/null \
  | grep -q '"evaluated":16' || { echo "cluster smoke: traced explore"; exit 1; }
CLUSTER_TRACE_OUT="$SMOKE_DIR/cluster-trace.out"
"$SRRA" cluster --nodes "$NODES" trace ci.cluster.t1 > "$CLUSTER_TRACE_OUT"
[ "$(grep -c '"scraped":true' "$CLUSTER_TRACE_OUT")" -eq 2 ] \
  || { echo "cluster smoke: trace scrape"; exit 1; }
grep -Eq '^trace ci\.cluster\.t1: [1-9][0-9]* span' "$CLUSTER_TRACE_OUT" \
  || { echo "cluster smoke: merged waterfall empty"; exit 1; }
grep -q '^mexplore +' "$CLUSTER_TRACE_OUT" \
  || { echo "cluster smoke: routed root span missing"; exit 1; }
grep -q '^  engine.allocation +' "$CLUSTER_TRACE_OUT" \
  || { echo "cluster smoke: engine stage child missing"; exit 1; }
# A malformed --trace id fails before any node is dialed, with the text
# `srra query` prints.
STATUS=0
"$SRRA" cluster --nodes "$NODES" --trace "bad id" stats \
  > "$SMOKE_DIR/cluster-bad-trace.out" 2>&1 || STATUS=$?
[ "$STATUS" -eq 1 ] && grep -Fqx "$BAD_TRACE_TEXT" "$SMOKE_DIR/cluster-bad-trace.out" \
  || { echo "cluster smoke: bad --trace id (exit $STATUS)"; cat "$SMOKE_DIR/cluster-bad-trace.out"; exit 1; }
# Graceful shutdown of both nodes.
"$SRRA" query --addr "$ADDR_A" shutdown | grep -q '"shutting_down":true'
"$SRRA" query --addr "$ADDR_B" shutdown | grep -q '"shutting_down":true'
wait "$NODE_A_PID"
NODE_A_PID=""
wait "$NODE_B_PID"
NODE_B_PID=""

echo "==> time-series smoke test"
# Two sampled nodes carrying a deliberately impossible SLO: no explore
# finishes under 1us, so the rule must breach once traffic lands.
TIGHT_SLO="serve_op_explore_latency_us p99 < 1us over 30s"
"$SRRA" serve --addr 127.0.0.1:0 --shards 2 --cache-dir "$SMOKE_DIR/node-e" \
  --sample-interval-ms 50 --slo "$TIGHT_SLO" \
  > "$SMOKE_DIR/node-e.out" 2> "$SMOKE_DIR/node-e.err" &
NODE_E_PID=$!
"$SRRA" serve --addr 127.0.0.1:0 --shards 2 --cache-dir "$SMOKE_DIR/node-f" \
  --sample-interval-ms 50 --slo "$TIGHT_SLO" \
  > "$SMOKE_DIR/node-f.out" 2> "$SMOKE_DIR/node-f.err" &
NODE_F_PID=$!
ADDR_E=""
ADDR_F=""
for _ in $(seq 1 100); do
  ADDR_E="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/node-e.out")"
  ADDR_F="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/node-f.out")"
  [ -n "$ADDR_E" ] && [ -n "$ADDR_F" ] && break
  sleep 0.1
done
[ -n "$ADDR_E" ] && [ -n "$ADDR_F" ] \
  || { echo "time-series smoke: a node never announced its address"; exit 1; }
SAMPLED_NODES="$ADDR_E,$ADDR_F"
# One direct cold explore per node breaches the SLO deterministically on
# both (routed cluster traffic alone could leave a node explore-free);
# the routed pass on top of it feeds the fleet-wide request rates.
"$SRRA" query --addr "$ADDR_E" explore --kernel fir --algos cpa --budgets 32 \
  | grep -q '"evaluated":1' || { echo "time-series smoke: node-e explore"; exit 1; }
"$SRRA" query --addr "$ADDR_F" explore --kernel mat --algos fr --budgets 16 \
  | grep -q '"evaluated":1' || { echo "time-series smoke: node-f explore"; exit 1; }
"$SRRA" cluster --nodes "$SAMPLED_NODES" explore \
  --kernel fir,mat,pat --algos fr,cpa --budgets 8,16,32 2>/dev/null \
  | grep -Eq '"evaluated":1[678]' || { echo "time-series smoke: routed explore"; exit 1; }
# Give the 50ms sampler a few ticks to capture the traffic above.
sleep 0.3
# Sample mode: at least two timestamped snapshots come back.
SERIES_OUT="$SMOKE_DIR/series.out"
"$SRRA" query --addr "$ADDR_E" series --last 16 > "$SERIES_OUT"
[ "$(grep -o '"at_us":' "$SERIES_OUT" | wc -l)" -ge 2 ] \
  || { echo "time-series smoke: fewer than two samples"; exit 1; }
# Window mode: the delta over the trailing window carries the traffic
# above as per-window counter increments, i.e. a non-zero request rate.
"$SRRA" query --addr "$ADDR_E" series --window-us 30000000 > "$SMOKE_DIR/series-delta.out"
grep -Eq '"serve_requests_total":[1-9]' "$SMOKE_DIR/series-delta.out" \
  || { echo "time-series smoke: windowed request rate is zero"; exit 1; }
# The fleet dashboard's single-frame mode renders one row per node plus
# the merged fleet row, with the impossible SLO showing as in breach.
TOP_OUT="$SMOKE_DIR/cluster-top.out"
"$SRRA" cluster --nodes "$SAMPLED_NODES" top --once > "$TOP_OUT" 2>/dev/null
grep -q "$ADDR_E" "$TOP_OUT" || { echo "time-series smoke: node-e row missing"; exit 1; }
grep -q "$ADDR_F" "$TOP_OUT" || { echo "time-series smoke: node-f row missing"; exit 1; }
grep -q 'fleet (2/2 up)' "$TOP_OUT" \
  || { echo "time-series smoke: fleet row missing"; exit 1; }
grep -q 'BREACH' "$TOP_OUT" \
  || { echo "time-series smoke: breaching SLO not rendered"; exit 1; }
# The breach moved the counter and logged its one transition line.
"$SRRA" query --addr "$ADDR_E" metrics \
  | grep -Eq '"obs_slo_breaches_total":[1-9]' \
  || { echo "time-series smoke: breach counter did not move"; exit 1; }
grep -q 'srra-obs slo-breach: rule=' "$SMOKE_DIR/node-e.err" \
  || { echo "time-series smoke: breach transition line missing"; exit 1; }
# Graceful shutdown of both sampled nodes.
"$SRRA" query --addr "$ADDR_E" shutdown | grep -q '"shutting_down":true'
"$SRRA" query --addr "$ADDR_F" shutdown | grep -q '"shutting_down":true'
wait "$NODE_E_PID"
NODE_E_PID=""
wait "$NODE_F_PID"
NODE_F_PID=""

echo "==> self-healing smoke test"
# A replicated two-node cluster survives a kill -9, heals the reborn node's
# empty disk through read-repair, and converges fully under `cluster repair`.
"$SRRA" serve --addr 127.0.0.1:0 --shards 2 --cache-dir "$SMOKE_DIR/node-c" \
  > "$SMOKE_DIR/node-c.out" 2> "$SMOKE_DIR/node-c.err" &
NODE_C_PID=$!
"$SRRA" serve --addr 127.0.0.1:0 --shards 2 --cache-dir "$SMOKE_DIR/node-d" \
  > "$SMOKE_DIR/node-d.out" 2> "$SMOKE_DIR/node-d.err" &
NODE_D_PID=$!
ADDR_C=""
ADDR_D=""
for _ in $(seq 1 100); do
  ADDR_C="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/node-c.out")"
  ADDR_D="$(sed -n 's/^srra-serve listening on \([0-9.:]*\).*/\1/p' "$SMOKE_DIR/node-d.out")"
  [ -n "$ADDR_C" ] && [ -n "$ADDR_D" ] && break
  sleep 0.1
done
[ -n "$ADDR_C" ] && [ -n "$ADDR_D" ] \
  || { echo "self-healing smoke: a node never announced its address"; exit 1; }
HEAL_NODES="$ADDR_C,$ADDR_D"
HEAL_AXES="--kernel fir,mat --algos fr,pr,cpa --budgets 8,16,32,64"
# Replicated cold explore: 24 points evaluated once each, every record teed
# to the other node.
"$SRRA" cluster --nodes "$HEAL_NODES" --replicas 2 --timeout-ms 2000 \
  explore $HEAL_AXES 2>/dev/null \
  | grep -q '"evaluated":24' || { echo "self-healing smoke: cold explore"; exit 1; }
# kill -9 node D: no graceful shutdown, no flushing, LOCK left behind.
# (disown first so bash does not print an async "Killed" job notice.)
disown "$NODE_D_PID" 2>/dev/null || true
kill -9 "$NODE_D_PID"
NODE_D_PID=""
# Reads still answer every key from the survivor's replica copies.
"$SRRA" cluster --nodes "$HEAL_NODES" --replicas 2 --timeout-ms 1000 \
  mget $HEAL_AXES > "$SMOKE_DIR/heal-mget-down.out"
! grep -q 'null' "$SMOKE_DIR/heal-mget-down.out" \
  || { echo "self-healing smoke: reads lost records with a node down"; exit 1; }
# Node D comes back on the SAME port with an EMPTY cache dir (the kill -9
# left the old dir's LOCK behind — a crashed disk is simulated by pointing
# the reborn node at a fresh one).
"$SRRA" serve --addr "$ADDR_D" --shards 2 --cache-dir "$SMOKE_DIR/node-d-reborn" \
  --idle-timeout-secs 1 \
  > "$SMOKE_DIR/node-d-reborn.out" 2> "$SMOKE_DIR/node-d-reborn.err" &
NODE_D_PID=$!
for _ in $(seq 1 100); do
  grep -q "srra-serve listening" "$SMOKE_DIR/node-d-reborn.out" && break
  sleep 0.1
done
grep -q "srra-serve listening" "$SMOKE_DIR/node-d-reborn.out" \
  || { echo "self-healing smoke: reborn node never bound its old port"; exit 1; }
# A replicated read pass heals: misses on the empty node are answered by
# the survivor and teed back (read-repair), so nothing is null...
"$SRRA" cluster --nodes "$HEAL_NODES" --replicas 2 --timeout-ms 2000 \
  mget $HEAL_AXES > "$SMOKE_DIR/heal-mget-reborn.out"
! grep -q 'null' "$SMOKE_DIR/heal-mget-reborn.out" \
  || { echo "self-healing smoke: reads lost records against the empty node"; exit 1; }
# ...and the reborn node physically received put traffic and records again.
"$SRRA" query --addr "$ADDR_D" metrics > "$SMOKE_DIR/heal-reborn-metrics.out"
grep -Eq '"serve_op_put_total":[1-9]' "$SMOKE_DIR/heal-reborn-metrics.out" \
  || { echo "self-healing smoke: no read-repair puts reached the reborn node"; exit 1; }
"$SRRA" query --addr "$ADDR_D" stats | grep -Eq '"records":[1-9]' \
  || { echo "self-healing smoke: reborn node still empty after read-repair"; exit 1; }
# Anti-entropy repair copies the records read-repair did not touch (the
# reborn node's replica share); a second pass proves convergence from the
# digests alone.
"$SRRA" cluster --nodes "$HEAL_NODES" --replicas 2 repair \
  > "$SMOKE_DIR/heal-repair-1.out"
grep -Eq '"records_copied":[1-9]' "$SMOKE_DIR/heal-repair-1.out" \
  || { echo "self-healing smoke: repair copied nothing"; exit 1; }
"$SRRA" cluster --nodes "$HEAL_NODES" --replicas 2 repair \
  | grep -q '"digests_equal":true' \
  || { echo "self-healing smoke: cluster did not converge after repair"; exit 1; }
# A rebalance onto the same node list finds every record at its owners, so
# it stores nothing and sends no `put` to either node.
heal_puts() {
  for addr in "$ADDR_C" "$ADDR_D"; do
    "$SRRA" query --addr "$addr" metrics | grep -o '"serve_op_put_total":[0-9]*'
  done
}
HEAL_PUTS_BEFORE="$(heal_puts)"
"$SRRA" cluster --nodes "$HEAL_NODES" --replicas 2 rebalance --to "$HEAL_NODES" \
  | grep -q '"records_stored":0' \
  || { echo "self-healing smoke: a converged rebalance stored records"; exit 1; }
[ "$(heal_puts)" = "$HEAL_PUTS_BEFORE" ] \
  || { echo "self-healing smoke: a converged rebalance sent puts"; exit 1; }
# The idle deadline reaps a connection that goes silent: hold a raw socket
# open past --idle-timeout-secs and watch the counter move.
exec 9<>"/dev/tcp/127.0.0.1/${ADDR_D##*:}" \
  || { echo "self-healing smoke: raw idle connection failed"; exit 1; }
sleep 1.6
exec 9<&- 9>&-
"$SRRA" query --addr "$ADDR_D" metrics \
  | grep -Eq '"serve_idle_reaped_total":[1-9]' \
  || { echo "self-healing smoke: idle connection was not reaped"; exit 1; }
# Graceful shutdown of both nodes.
"$SRRA" query --addr "$ADDR_C" shutdown | grep -q '"shutting_down":true'
"$SRRA" query --addr "$ADDR_D" shutdown | grep -q '"shutting_down":true'
wait "$NODE_C_PID"
NODE_C_PID=""
wait "$NODE_D_PID"
NODE_D_PID=""

echo "==> code size (non-test lines, reported only)"
# The lines before each file's first #[cfg(test)], shims excluded.
non_test_lines() {
  find "$@" -name '*.rs' -not -path 'crates/shims/*' | sort \
    | xargs awk 'FNR==1{stop=0} /#\[cfg\(test\)\]/{stop=1} !stop{n++} END{print n}'
}
code_size() {
  echo "total $(non_test_lines crates/*/src src)"
  for dir in crates/*/src src; do
    local name="${dir%/src}"
    echo "  ${name#crates/} $(non_test_lines "$dir")"
  done
}
code_size || echo "code size: not counted"

echo "ci.sh: all checks passed"
