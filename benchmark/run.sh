#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — build cache, binary, WAL scratch — stays inside the
# checkout it is run from.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/oo1e2e" . >&2
exec "$build/oo1e2e" "$@"
