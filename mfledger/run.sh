#!/usr/bin/env bash
# Builds the mfledger benchmark from the checkout's sources and runs it.
#
#   bash mfledger/run.sh --workload scalar-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporary files) stays under .bench_build in the current
# directory, and the toolchain is kept offline: the module has no
# dependencies beyond the repository itself.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
export GOSUMDB=off GOWORK=off GOFLAGS=-mod=mod
# The official Go distribution's default location, for shells whose PATH
# lacks the toolchain.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$here" && go build -o "$out/mfledger" .)
exec "$out/mfledger" "$@"
