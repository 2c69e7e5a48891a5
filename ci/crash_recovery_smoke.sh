#!/usr/bin/env bash
# Crash-recovery smoke test: boot a full deployment with both servers
# journaling to -data-dir, build state through slicer-cli, SIGKILL the
# servers (no shutdown hook runs — only the WAL survives), restart them
# on the same data directories, and require a fully verified search.
# The search settles on chain, so it passes only if the recovered cloud
# index still matches the accumulator digest the chain recovered.
#
# Expects slicer-cloud, slicer-chain and slicer-cli binaries in $BIN
# (default /tmp), e.g.:
#
#	go build -o /tmp/slicer-cloud ./cmd/slicer-cloud
#	go build -o /tmp/slicer-chain ./cmd/slicer-chain
#	go build -o /tmp/slicer-cli   ./cmd/slicer-cli
#	bash ci/crash_recovery_smoke.sh
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

CLOUD_ADDR=127.0.0.1:7461
CHAIN_ADDR=127.0.0.1:7462
CLI=("$BIN/slicer-cli")
COMMON=(-state "$WORK/state.json" -cloud "$CLOUD_ADDR" -chain "$CHAIN_ADDR")

start_servers() { # $1: log suffix
	start CHAIN_PID "$WORK/chain-$1.log" \
		"$BIN/slicer-chain" -listen "$CHAIN_ADDR" -data-dir "$WORK/chain-data"
	start CLOUD_PID "$WORK/cloud-$1.log" \
		"$BIN/slicer-cloud" -listen "$CLOUD_ADDR" -data-dir "$WORK/cloud-data"
	wait_port "$CHAIN_PID" "$CHAIN_ADDR"
	wait_port "$CLOUD_PID" "$CLOUD_ADDR"
	# One more liveness check after both ports answered: a bind failure
	# exits after the listen socket of a third party answered the probe.
	kill -0 "$CHAIN_PID" && kill -0 "$CLOUD_PID"
}

port_free "$CHAIN_ADDR"
port_free "$CLOUD_ADDR"

echo "== boot + build state =="
start_servers boot
"${CLI[@]}" init "${COMMON[@]}" -bits 8 -values 1=7,2=9,3=7 \
	-trapdoor-bits 512 -accumulator-bits 512
"${CLI[@]}" insert "${COMMON[@]}" -values 4=7

echo "== SIGKILL both servers =="
kill -9 "$CHAIN_PID" "$CLOUD_PID"
wait "$CHAIN_PID" "$CLOUD_PID" 2>/dev/null || true

echo "== restart on the same data directories =="
start_servers recovered
grep -q 'recovered from' "$WORK/chain-recovered.log"
grep -q 'recovered from' "$WORK/cloud-recovered.log"

echo "== verified search against the recovered deployment =="
"${CLI[@]}" search "${COMMON[@]}" -op '=' -value 7 | tee "$WORK/search.out"
grep -q 'on-chain verification passed' "$WORK/search.out"
grep -q 'matching record IDs: \[1 3 4\]' "$WORK/search.out"

echo "crash-recovery smoke: OK"
