#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-scan-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build=$root/$build
mkdir -p "$build/go/cache" "$build/go/tmp" "$build/go/config"
export GOCACHE=$build/go/cache GOTMPDIR=$build/go/tmp GOMODCACHE=$build/go/mod
export XDG_CONFIG_HOME=$build/go/config GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/traces" "$@"
