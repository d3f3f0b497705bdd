#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload mpi-mg --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its own
# configuration) and the binary stay under .bench_build in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
