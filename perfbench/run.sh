#!/usr/bin/env bash
# Builds the benchmark from the sources next to it and runs it.
#
#   bash perfbench/run.sh --workload checkpoint|restart|update --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, the go command's
# telemetry counters, binary, trace files) goes under .bench_build/perfbench
# in the repository root, and the Go toolchain is pinned to the local one
# with the module proxy off, so the build never leaves the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off \
	XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
