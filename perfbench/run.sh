#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it; arguments go to the
# benchmark (--workload NAME --seed N --seconds S --trace 0|1). Run it from
# the repository root. The build cache, the binary and traced runs' span
# files stay under $CARGO_TARGET_DIR (default .bench_build); the build never
# touches the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
