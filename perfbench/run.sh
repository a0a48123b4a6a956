#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# inputs, trace files) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
# -buildvcs=false: the checkout may sit inside another repository, or have
# no usable version control at all; the binary needs no VCS stamp.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
