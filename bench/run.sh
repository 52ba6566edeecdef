#!/usr/bin/env bash
# Builds phasedetect and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash bench/run.sh -workload hpc-long -seed 1
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/phasedetect" ]; then
	echo "bench: run from the root of an incprof checkout; $root has no go.mod and cmd/phasedetect" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, every go command starts a detached child process that
# can outlive the build and this script.
printf 'off' >"$build/config/go/telemetry/mode"

go build -o "$build/bin/phasedetect" ./cmd/phasedetect
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
