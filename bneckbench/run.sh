#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash bneckbench/run.sh --workload lan-steady --seed 3 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# span files of traced runs go to $CARGO_TARGET_DIR (default .bench_build),
# relative to the current directory unless absolute, so nothing is written
# outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

# Keep the toolchain's caches, temporary files and settings in the build
# directory, never let it reach for the network, and keep it from starting
# a telemetry process that could outlive the build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go telemetry off
(cd "$here" && go build -o "$build/bneckbench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/bneckbench" "$@"
fi
exec "$build/bneckbench" -out "$build" "$@"
