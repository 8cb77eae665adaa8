#!/usr/bin/env bash
# Builds the driftbench serving binary and the layerbench harness from
# this checkout, then runs layerbench with the given arguments:
#
#   bash layerbench/run.sh --workload nsl-serve --seed 1 --seconds 12 --trace 0
#   bash layerbench/run.sh compare BASE.json NEW.json
#
# Run from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout (Go's build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/layerbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "layerbench/run.sh: run from the repository root (go.mod and layerbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=

go build -o "$out/driftbench" ./cmd/driftbench
(cd layerbench && go build -o "$out/layerbench.bin" .)
exec "$out/layerbench.bin" -driftbench "$out/driftbench" -out "$out/out" -root "$root" "$@"
