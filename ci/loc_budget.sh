#!/usr/bin/env bash
# Line budget of the deletion round (ROADMAP item 7): root-module non-test Go
# may not grow past the ceiling, and the fair-exchange round may be spelled
# only in internal/exchange (benchmark/ keeps its instrumented copy). Lower
# CEILING in the PR that removes code; raising it needs a reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

CEILING=28992
sources() { find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@"; }
lines=$(sources -print0 | xargs -0 cat | wc -l)
echo "root-module non-test Go lines: $lines (ceiling $CEILING)"
[ "$lines" -le "$CEILING" ] || { echo "over the line budget"; exit 1; }
if sources -not -path './internal/contract/*' -not -path './internal/exchange/*' -print0 |
	xargs -0 grep -n 'contract\.SubmitData(\|contract\.RequestData('; then
	echo "a second copy of the fair-exchange round: call exchange.Round instead"
	exit 1
fi
