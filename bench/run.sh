#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build cache, temporary files, journals and
# span files all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOSUMDB=off

(cd "$root/bench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
