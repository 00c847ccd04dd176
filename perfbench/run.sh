#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload solve-fresh --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch files (WAL directory, span files) all stay under
# .bench_build/ in that directory. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
