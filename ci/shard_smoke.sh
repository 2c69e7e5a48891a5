#!/usr/bin/env bash
# Sharded-tier smoke test: boot three slicer-cloud shards behind a
# slicer-router (all journaling to -data-dir) plus a chain, build state
# through slicer-cli as if the router were one cloud, then SIGKILL one
# shard and — while it is down — ask the router to move a range onto it.
# The move must stall, survive the shard restarting on its data
# directory, and complete; afterwards a fresh search must pass on-chain
# verification, which only holds if no index entry was lost or
# duplicated across the kill + move + restart.
#
# Expects slicer-cloud, slicer-router, slicer-chain and slicer-cli in
# $BIN (default /tmp), e.g.:
#
#	go build -o /tmp/slicer-cloud  ./cmd/slicer-cloud
#	go build -o /tmp/slicer-router ./cmd/slicer-router
#	go build -o /tmp/slicer-chain  ./cmd/slicer-chain
#	go build -o /tmp/slicer-cli    ./cmd/slicer-cli
#	bash ci/shard_smoke.sh
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

ROUTER_ADDR=127.0.0.1:7471
S1_ADDR=127.0.0.1:7472
S2_ADDR=127.0.0.1:7473
S3_ADDR=127.0.0.1:7474
CHAIN_ADDR=127.0.0.1:7475
CLI=("$BIN/slicer-cli")
# The router IS the cloud as far as the CLI is concerned.
COMMON=(-state "$WORK/state.json" -cloud "$ROUTER_ADDR" -chain "$CHAIN_ADDR")

start_shard() { # $1: id  $2: addr  $3: log suffix
	start "${1^^}_PID" "$WORK/$1-$3.log" \
		"$BIN/slicer-cloud" -listen "$2" -data-dir "$WORK/$1-data"
	wait_port "$!" "$2"
}

for p in "$ROUTER_ADDR" "$S1_ADDR" "$S2_ADDR" "$S3_ADDR" "$CHAIN_ADDR"; do
	port_free "$p"
done

echo "== boot chain, three shards, router =="
start CHAIN_PID "$WORK/chain.log" \
	"$BIN/slicer-chain" -listen "$CHAIN_ADDR" -data-dir "$WORK/chain-data"
wait_port "$CHAIN_PID" "$CHAIN_ADDR"
start_shard s1 "$S1_ADDR" boot
start_shard s2 "$S2_ADDR" boot
start_shard s3 "$S3_ADDR" boot
start ROUTER_PID "$WORK/router.log" \
	"$BIN/slicer-router" -listen "$ROUTER_ADDR" -data-dir "$WORK/router-data" \
	-shards "s1=$S1_ADDR,s2=$S2_ADDR,s3=$S3_ADDR"
wait_port "$ROUTER_PID" "$ROUTER_ADDR"

echo "== build state through the router =="
"${CLI[@]}" init "${COMMON[@]}" -bits 8 -values 1=7,2=9,3=7 \
	-trapdoor-bits 512 -accumulator-bits 512
"${CLI[@]}" insert "${COMMON[@]}" -values 4=7
"${CLI[@]}" status "${COMMON[@]}" | tee "$WORK/status.out"
grep -q 'router: table epoch' "$WORK/status.out"

echo "== pick a source arc and a destination shard =="
"${CLI[@]}" rebalance "${COMMON[@]}" -show | tee "$WORK/table.out"
# First arc line: "  <shard> [<lo>, <hi>)". Move it to a different shard.
ARC=$(grep -E '^\s+s[0-9]+\s+\[' "$WORK/table.out" | head -1)
SRC=$(echo "$ARC" | awk '{print $1}')
LO=$(echo "$ARC" | sed -E 's/.*\[([0-9a-fx]+),.*/\1/')
HI=$(echo "$ARC" | sed -E 's/.*, *([0-9a-fx^]+)\).*/\1/')
[ "$HI" = "2^64" ] && HI=0
for cand in s1 s2 s3; do
	if [ "$cand" != "$SRC" ]; then DST=$cand; break; fi
done
DST_ADDR_VAR="${DST^^}_ADDR"
DST_PID_VAR="${DST^^}_PID"
echo "moving $SRC arc [$LO, $HI) to $DST"

echo "== SIGKILL destination shard $DST, then start the move =="
kill -9 "${!DST_PID_VAR}"
wait "${!DST_PID_VAR}" 2>/dev/null || true
# The move's import pages retry against the dead shard; give the command
# no call deadline so the stalled move can outlive the default timeout.
start MOVE_PID "$WORK/move.out" \
	"${CLI[@]}" rebalance "${COMMON[@]}" -call-timeout 0 -lo "$LO" -hi "$HI" -to "$DST"
sleep 2
if ! kill -0 "$MOVE_PID" 2>/dev/null; then
	echo "move finished while the destination was down:" >&2
	cat "$WORK/move.out" >&2
	exit 1
fi

echo "== restart $DST on its data directory; the move must complete =="
start_shard "$DST" "${!DST_ADDR_VAR}" recovered
grep -q 'recovered from' "$WORK/$DST-recovered.log"
wait "$MOVE_PID"
cat "$WORK/move.out"
grep -q "^moved .* to $DST:" "$WORK/move.out"

echo "== routing table advanced an epoch =="
"${CLI[@]}" rebalance "${COMMON[@]}" -show | tee "$WORK/table2.out"
grep -q 'epoch 1' "$WORK/table2.out"

echo "== fresh verified search settles on chain =="
"${CLI[@]}" search "${COMMON[@]}" -op '=' -value 7 | tee "$WORK/search.out"
grep -q 'on-chain verification passed' "$WORK/search.out"
grep -q 'matching record IDs: \[1 3 4\]' "$WORK/search.out"

echo "shard smoke: OK"
