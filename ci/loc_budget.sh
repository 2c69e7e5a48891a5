#!/usr/bin/env bash
# Line budget of the deletion round (ROADMAP item 7): root-module non-test Go
# may not grow past the ceiling, the fair-exchange round may be spelled only
# in internal/exchange (benchmark/ keeps its instrumented copy), Algorithm 5
# only in internal/core: the contract's non-test code may not import the
# multiset hash, which a second verifier would need, and the parallel-for
# only in internal/core/parallel.go: core, shard and the root package fan
# out through core.ForEachIndexed. The scheme, internal/core and what it
# imports, stays a leaf (ROADMAP item 31): none of the serving packages may
# enter its closure. Its lines print beside the module's, so every change
# shows which half it grew. Lower CEILING in the PR that removes code;
# raising it needs a reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

CEILING=28659
sources() { find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@"; }
lines=$(sources -print0 | xargs -0 cat | wc -l)
scheme=$(for d in $(go list -deps -f '{{if not .Standard}}{{.Dir}}{{end}}' ./internal/core); do
	find "$d" -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0
done | xargs -0 cat | wc -l)
echo "root-module non-test Go lines: $lines (ceiling $CEILING), of them the scheme's: $scheme"
[ "$lines" -le "$CEILING" ] || { echo "over the line budget"; exit 1; }
if go list -deps ./internal/core | grep -E '^slicer/internal/(chain|obs|wire|durable|shard|audit|contract|exchange)$'; then
	echo "the scheme is not a leaf: internal/core reaches the serving stack above"
	exit 1
fi
if sources -not -path './internal/contract/*' -not -path './internal/exchange/*' -print0 |
	xargs -0 grep -n 'contract\.SubmitData(\|contract\.RequestData('; then
	echo "a second copy of the fair-exchange round: call exchange.Round instead"
	exit 1
fi
if find ./internal/contract -name '*.go' -not -name '*_test.go' -print0 |
	xargs -0 grep -n '"slicer/internal/mhash"'; then
	echo "a second Algorithm 5: the contract runs core.VerifyResults with its gas meter"
	exit 1
fi
if { find ./internal/core ./internal/shard -name '*.go' -not -name '*_test.go' -not -path ./internal/core/parallel.go -print0
	find . -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0; } | xargs -0 grep -n 'sync\.WaitGroup'; then
	echo "a hand-rolled fan-out: call core.ForEachIndexed"
	exit 1
fi
