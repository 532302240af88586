#!/usr/bin/env bash
# Builds wallbench from source in the current checkout and runs it with
# the given arguments, e.g. from the repository root:
#
#   bash wallbench/run.sh --workload newton-fc --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/wallbench" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomod" GOTMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "${here}" && go build -o "${build}/wallbench/wallbench" .)
exec "${build}/wallbench/wallbench" "$@"
