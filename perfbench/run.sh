#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload json-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench
# in the current directory: the Go build cache and temporary files, the
# binary, and the run records. The build needs the repository's own go.mod
# one level above this directory; without it the build fails and the script
# exits non-zero.
set -u
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp" || exit 2

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

if ! (cd "$bench_dir" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" -record-dir "$out/records" "$@"
