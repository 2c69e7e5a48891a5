#!/usr/bin/env bash
# Line budget of the deletion round (ROADMAP item 7): root-module non-test Go
# may not grow past the ceiling, the fair-exchange round may be spelled only
# in internal/exchange (benchmark/ keeps its instrumented copy), Algorithm 5
# only in internal/core: the contract's non-test code may not import the
# multiset hash, which a second verifier would need, and the parallel-for
# only in internal/core/parallel.go: core, shard and the root package fan
# out through core.ForEachIndexed. Lower CEILING in the PR that removes
# code; raising it needs a reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

CEILING=28274
sources() { find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@"; }
lines=$(sources -print0 | xargs -0 cat | wc -l)
echo "root-module non-test Go lines: $lines (ceiling $CEILING)"
[ "$lines" -le "$CEILING" ] || { echo "over the line budget"; exit 1; }
if sources -not -path './internal/contract/*' -not -path './internal/exchange/*' -print0 |
	xargs -0 grep -n 'contract\.SubmitData(\|contract\.RequestData('; then
	echo "a second copy of the fair-exchange round: call exchange.Round instead"
	exit 1
fi
if find ./internal/contract -name '*.go' -not -name '*_test.go' -print0 |
	xargs -0 grep -n '"slicer/internal/mhash"'; then
	echo "a second Algorithm 5: the contract runs core.VerifyTokenResult with its gas meter"
	exit 1
fi
if { find ./internal/core ./internal/shard -name '*.go' -not -name '*_test.go' -not -path ./internal/core/parallel.go -print0
	find . -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0; } | xargs -0 grep -n 'sync\.WaitGroup'; then
	echo "a hand-rolled fan-out: call core.ForEachIndexed"
	exit 1
fi
