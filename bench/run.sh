#!/usr/bin/env bash
# Builds xbench into .bench_build/ at the checkout root and runs it from
# there, whatever directory it is called from. The Go build cache and temp
# files go to .bench_build/ too, so that a run reads and writes nothing
# outside its checkout. xbench builds cmd/xqserve itself, into the same
# directory, with the same cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -C "$here" -o "$build/xbench" ./cmd/xbench
exec "$build/xbench" "$@"
