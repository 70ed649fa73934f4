#!/usr/bin/env bash
# Builds the program binaries and the benchmark driver from source, then
# runs the driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dense_detect --seed 1 --seconds 15 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build/ in the current directory, so no timer ever covers a build.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/" ./cmd/cheetah ./cmd/cheetahd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
