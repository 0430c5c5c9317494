#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload regen-cold --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache, the
# binary, the disk-cache directories of the workloads and Go's own
# configuration directory. Exits non-zero without printing a result when
# the build fails, e.g. outside a full checkout of the repository.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" --root "$root" --tmp "$build/tmp" "$@"
