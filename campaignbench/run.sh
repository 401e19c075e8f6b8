#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash campaignbench/run.sh --workload explore-spec06 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), relative to the current
# directory, which must be the repository root.
set -euo pipefail

here=$(dirname "$0")
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C "$here" build -buildvcs=false -trimpath -o "$build/campaignbench" .
exec "$build/campaignbench" --spans-dir "$build/spans" "$@"
