#!/usr/bin/env bash
# Builds the ledger and runs it with the given flags. Everything the build
# writes (binary, Go build cache) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/ledger" .
cd "$root"
exec "$build/ledger" "$@"
