#!/usr/bin/env bash
# Audit-ledger smoke test: boot a full deployment with tamper-evident
# auditing on (both servers journal to <data-dir>/audit, the client to its
# own ledger), drive the continuous verification prober, SIGKILL both
# servers while probes are mid-flight (no shutdown hook runs — appends are
# cut wherever the WAL happened to be), restart, and require every hash
# chain to re-verify from genesis: a torn tail is truncated as
# unacknowledged, never reported as tampering.
#
# Expects slicer-cloud, slicer-chain and slicer-cli binaries in $BIN
# (default /tmp), e.g.:
#
#	go build -o /tmp/slicer-cloud ./cmd/slicer-cloud
#	go build -o /tmp/slicer-chain ./cmd/slicer-chain
#	go build -o /tmp/slicer-cli   ./cmd/slicer-cli
#	bash ci/audit_smoke.sh
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

CLOUD_ADDR=127.0.0.1:7471
CHAIN_ADDR=127.0.0.1:7472
CLI=("$BIN/slicer-cli")
COMMON=(-state "$WORK/state.json" -cloud "$CLOUD_ADDR" -chain "$CHAIN_ADDR" -tenant smoke)
CLI_LEDGER="$WORK/cli-audit"

start_servers() { # $1: log suffix — -data-dir turns auditing on by default
	start CHAIN_PID "$WORK/chain-$1.log" \
		"$BIN/slicer-chain" -listen "$CHAIN_ADDR" -data-dir "$WORK/chain-data"
	start CLOUD_PID "$WORK/cloud-$1.log" \
		"$BIN/slicer-cloud" -listen "$CLOUD_ADDR" -data-dir "$WORK/cloud-data"
	wait_port "$CHAIN_PID" "$CHAIN_ADDR"
	wait_port "$CLOUD_PID" "$CLOUD_ADDR"
	kill -0 "$CHAIN_PID" && kill -0 "$CLOUD_PID"
}

port_free "$CHAIN_ADDR"
port_free "$CLOUD_ADDR"

echo "== boot with auditing on + build state =="
start_servers boot
grep -q 'audit ledger .* chain verified' "$WORK/chain-boot.log"
grep -q 'audit ledger .* chain verified' "$WORK/cloud-boot.log"
"${CLI[@]}" init "${COMMON[@]}" -bits 8 -values 1=7,2=9,3=7 \
	-trapdoor-bits 512 -accumulator-bits 512
"${CLI[@]}" insert "${COMMON[@]}" -values 4=7

echo "== verification probe against the live deployment =="
"${CLI[@]}" probe "${COMMON[@]}" -op '=' -value 7 -count 2 -interval 0.1s \
	-audit-dir "$CLI_LEDGER" | tee "$WORK/probe.out"
grep -q 'probe #[0-9]* ok' "$WORK/probe.out"

echo "== SIGKILL both servers while probes are mid-flight =="
start PROBE_PID "$WORK/probe-bg.out" \
	"${CLI[@]}" probe "${COMMON[@]}" -op '=' -value 7 -count 0 -interval 0.1s -audit-dir "$CLI_LEDGER"
sleep 1
kill -9 "$CHAIN_PID" "$CLOUD_PID"
wait "$CHAIN_PID" "$CLOUD_PID" 2>/dev/null || true
kill -9 "$PROBE_PID" 2>/dev/null || true
wait "$PROBE_PID" 2>/dev/null || true

echo "== restart: every ledger must re-verify its hash chain =="
start_servers recovered
grep -q 'audit ledger .* chain verified' "$WORK/chain-recovered.log"
grep -q 'audit ledger .* chain verified' "$WORK/cloud-recovered.log"

echo "== offline audit verify over all three ledgers =="
for dir in "$WORK/cloud-data/audit" "$WORK/chain-data/audit" "$CLI_LEDGER"; do
	"${CLI[@]}" audit verify -audit-dir "$dir" | tee "$WORK/verify.out"
	grep -q 'audit chain verified' "$WORK/verify.out"
done
# Land the tail in a file before grepping: grep -q exits on first match and
# would SIGPIPE the still-writing CLI under pipefail.
"${CLI[@]}" audit tail -audit-dir "$CLI_LEDGER" -n 3 >"$WORK/tail.out"
grep -q 'kind    probe' "$WORK/tail.out"

echo "== recovered deployment still settles a probed search =="
"${CLI[@]}" probe "${COMMON[@]}" -op '=' -value 7 -count 1 \
	-audit-dir "$CLI_LEDGER" | tee "$WORK/probe-final.out"
grep -q 'settled' "$WORK/probe-final.out"

echo "audit smoke: OK"
