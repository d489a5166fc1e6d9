#!/usr/bin/env bash
# run.sh builds ttdiag-bench and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/ttdiag-bench/run.sh                       # every workload, 5 samples
#   bash cmd/ttdiag-bench/run.sh -workload rare-event -seed 7 -seconds 20 -trace 0
#
# Binaries, the Go build cache, temporary files and the go command's
# configuration and telemetry directory all go to .bench_build under the
# root, so a run reads nothing outside the checkout but the toolchain, and
# writes nothing outside it.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/ttdiag-experiments || ! -f BENCHMARK.json ]]; then
    echo "run.sh: run from the root of a ttdiag checkout" >&2
    exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# A local toolchain, no module proxy, no workspace: the build needs nothing
# outside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/ttdiag-bench build -o "$out/ttdiag-bench" .
exec "$out/ttdiag-bench" "$@"
