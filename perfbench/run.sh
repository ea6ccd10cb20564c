#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root. Arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload sign-open --seed 1 --seconds 22 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# registries, span dumps) stays under .bench_build/ in the checkout, and
# the Go toolchain runs offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
