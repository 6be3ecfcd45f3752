#!/usr/bin/env bash
# Inlining gate (CI): the six typed helpers in internal/serve/front.go
# must stay within the compiler's inlining budget. Inlined into a call
# site that names a concrete *Server or *Sharded, CallBudget
# devirtualises and the kernel.Args record stays on the stack (the
# 0 allocs/op that TestCacheHitZeroAllocs pins); one branch too many in
# a helper body silently turns that into 1 alloc/op at every call site.
# Run from anywhere; exits non-zero naming each helper that no longer
# inlines.
set -uo pipefail
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m ./internal/serve 2>&1)
fail=0
for fn in Sort Select Histogram Scan Sum BFS; do
	if ! grep -q "front.go:[0-9]*:[0-9]*: can inline $fn\$" <<<"$report"; then
		echo "inlinecheck: serve.$fn is no longer inlinable (go build -gcflags=-m=2 ./internal/serve says why)" >&2
		fail=1
	fi
done
if [ "$fail" = 0 ]; then
	echo "inlinecheck: all six serve helpers inline"
fi
exit "$fail"
