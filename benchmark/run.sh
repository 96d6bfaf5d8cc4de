#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from any directory:
#
#   bash benchmark/run.sh --workload train-mpc --seed 1 --seconds 26 --trace 0
#
# Everything the build writes stays inside the checkout, under .bench_build
# (go's build cache included), so a sandbox without a home directory works.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: $root holds no go.mod / internal/: the program under test is not here" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The go command forks a detached telemetry sidecar the first time it sees a
# fresh config directory; it would outlive this script. Mode "off" stops that.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/pivot-benchmark" ./benchmark
exec "$build/pivot-benchmark" "$@"
