#!/usr/bin/env bash
# Builds hyperbench from source inside the checkout and runs it with the
# arguments given. The Go build cache, temporary files and the go
# command's own config and counters are kept under .bench_build, so
# nothing outside the checkout is read for state or written.
#
# Go telemetry is switched off in that private config before the go
# command runs: in its default "local" mode the first go invocation
# against a fresh config directory starts a detached telemetry sidecar
# that outlives the go command, and this script must leave no process
# behind, whether the build succeeds or not.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -buildvcs=false -o "$build/hyperbench" ./cmd/hyperbench
exec "$build/hyperbench" "$@"
