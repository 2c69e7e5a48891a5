#!/usr/bin/env bash
# Fuzz smoke: run every Fuzz* target of the module for a short while.
# `go test` alone only replays each target's seed corpus; this lets the
# engine mutate, so a differential target (FuzzStateRootIncremental: the
# incrementally maintained state root against one rebuilt from scratch)
# or a decoder round trip gets inputs nobody wrote down. A finding fails
# the job and leaves its input under the package's testdata/fuzz/.
#
#	FUZZTIME=20s bash ci/fuzz_smoke.sh
set -euo pipefail

FUZZTIME=${FUZZTIME:-20s}
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Only packages that declare a target are built.
for pkg in $(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		echo "== $pkg $target ($FUZZTIME)"
		# The engine minimizes every input that reaches new coverage and
		# runs nothing else meanwhile; the default of 60s per input would
		# eat the whole budget.
		go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" -fuzzminimizetime 2s "$pkg"
	done
done
