#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the root of
# the checkout. Everything the build and the run write stays inside the
# checkout: the binary and the go caches under .bench_build/, the
# harness's own output under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bleaf-perf" .) >&2
cd "$root"
exec "$build/bleaf-perf" "$@"
