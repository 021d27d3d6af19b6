#!/bin/sh
# Builds the benchmark from this checkout's source and runs one
# workload. Run from the repository root:
#
#	sh perfbench/run.sh --workload paper-all --seed 42 --seconds 20 --trace 0
#
# Every file the build and the run write lands under .bench_build/ in
# the current directory: the Go build cache, the benchmark binary, the
# span files of traced runs and the output digests of earlier runs.
set -eu
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
