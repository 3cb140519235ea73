#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fed-easy --seed 7 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the span files of traced runs all go
# under .bench_build/ in the current directory, so nothing is written outside
# it. Without the repository around perfbench/ the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
