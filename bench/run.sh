#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark with a Go
# cache inside the checkout (the benchmark may write nowhere else) and
# runs it from the repository root; all arguments go to the program.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bin/bench" .
exec "$out/bin/bench" -root "$root" "$@"
