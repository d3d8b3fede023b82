#!/usr/bin/env bash
# Builds cloakd and the benchmark from the checkout's sources, then runs
# one benchmark invocation. Run from the repository root:
#   bash wirebench/run.sh --workload cloak_read --seed 1 --seconds 25 --trace 0
#   bash wirebench/run.sh --selftest
# Everything the build writes (Go cache, temp files, binaries, span
# logs) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
# The go command starts a detached telemetry child (its own session, so
# it outlives the build) unless the telemetry mode file says "off"; with
# the config directory moved under .bench_build/ there is none yet.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
if [[ ! -f go.mod || ! -d cmd/cloakd ]]; then
	echo "wirebench: run from the repository root (no go.mod or cmd/cloakd here)" >&2
	exit 1
fi
go build -o "$out/cloakd" ./cmd/cloakd
(cd wirebench && go build -o "$out/wirebench" .)

# An untraced run pins the load generator to the first CPU it may use and
# gives cloakd all of them. Left to float, the generator's threads and
# cloakd's settle into different placements from run to run, and cloak
# latency jumps between two modes (p50 ~58 us vs ~80 us on 2 vCPUs). A
# traced run stays unpinned: its in-process stack needs every CPU.
pin=()
sut=()
cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //') || cpus=""
if [[ " $* " != *" --trace 1 "* && -n "$cpus" && "$cpus" =~ [-,] ]]; then
	pin=(taskset -c "${cpus%%[-,]*}")
	sut=(-sut-cpus "$cpus")
fi
exec "${pin[@]}" "$out/wirebench" -cloakd "$out/cloakd" "${sut[@]}" "$@"
