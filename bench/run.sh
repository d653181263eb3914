#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; this is the
# "command" of BENCHMARK.json. Every file the Go toolchain writes (build
# cache, temporaries, binaries) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
[ -f "$root/go.mod" ] || { echo "bench/run.sh: $root is not the ogpa repository (no go.mod): the benchmark builds the server from source" >&2; exit 1; }
(cd "$root/bench" && go build -o "$build/bin/ogpabench" .)
cd "$root"
exec "$build/bin/ogpabench" "$@"
