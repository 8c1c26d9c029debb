#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes stays under bench/.build, so a run reads and writes only inside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" -out "$here/out" "$@"
