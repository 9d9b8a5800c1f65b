#!/usr/bin/env bash
# Builds the vmq benchmark from source and runs it:
#
#   bash vmqbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build and run artifact (Go build
# cache, temporary files, traces, spills) stays under .bench_build/ in
# the working directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/vmqbench" && go build -buildvcs=false -o "$out/vmqbench" .) >&2
exec "$out/vmqbench" -out "$out" "$@"
