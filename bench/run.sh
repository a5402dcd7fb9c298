#!/usr/bin/env bash
# Builds the benchmark from source into bench/out/ and runs it there. Every
# file the build and the run write stays under bench/out/, which is ignored.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
# The Go tool's cache, module path and per-user state go under out/ too, so a
# checkout is built from its own source and writes nothing outside itself.
env HOME="$PWD/out/home" GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" \
    GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
    go build -o out/bench .
exec out/bench "$@"
