#!/usr/bin/env bash
# bench.sh runs the campaign engine and protocol hot-path benchmarks (plus
# the wide scale-resilience repetition on one-lane gangs and one gang of the
# lane-packed cluster) and records
# every sample in BENCH_campaign.json, plus the packed voting-kernel
# microbenchmarks in BENCH_core.json, the telemetry-layer benchmarks
# (instrument costs, Step with metrics on/off, the gang StepBatch with
# shared instruments and Step with the causal flight recorder on/off) in
# BENCH_metrics.json,
# the hierarchical fleet campaign in BENCH_fleet.json and the rare-event
# splitting estimation with the lane checkpoint it refills gang lanes from
# in BENCH_splitting.json, so the bench
# trajectory of the repository can be tracked across commits. Usage:
#
#   scripts/bench.sh                 # 5 samples per benchmark (default)
#   COUNT=1 scripts/bench.sh         # quick single-sample run
#
# See docs/PERFORMANCE.md for the reference numbers and how to read them.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# fold_json converts `go test -bench` output on stdin into a JSON sample list
# (no external tools: the container only guarantees the go toolchain and a
# POSIX userland).
fold_json() {
    awk '
BEGIN { print "["; sep = "" }
/^Benchmark/ {
    name = $1; iters = $2; ns = "null"; bytes = "null"; allocs = "null"
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "B/op") bytes = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
    }
    printf "%s  {\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", \
        sep, name, iters, ns, bytes, allocs
    sep = ",\n"
}
END { print "\n]" }
'
}

# BenchmarkWideResilienceRun times one-lane gangs on the N = 64 asymmetric
# scale-resilience case; BenchmarkBatchClusterRun times one gang of the
# lane-packed cluster, quiet and with one burst per lane.
go test -run '^$' \
    -bench 'BenchmarkSec8BurstCampaign|BenchmarkProtocolStep|BenchmarkEngineRound|BenchmarkWideResilienceRun|BenchmarkBatchClusterRun' \
    -benchmem -count="$COUNT" . ./internal/experiments/ ./internal/sim/ | tee "$raw"
fold_json < "$raw" > BENCH_campaign.json
echo "wrote BENCH_campaign.json"

go test -run '^$' \
    -bench 'BenchmarkVoteAll|BenchmarkVoteAllScalar|BenchmarkMatrixSetRow|BenchmarkStepBatch$|BenchmarkCheckpointRestore' \
    -benchmem -count="$COUNT" ./internal/core/ | tee "$raw"
fold_json < "$raw" > BENCH_core.json
echo "wrote BENCH_core.json"

# Both packages feed one stream so fold_json emits a single JSON list.
# BenchmarkStepTrace pairs with BenchmarkStepMetrics: Step with a causal
# flight recorder attached vs the nil-sink baseline. BenchmarkStepBatchMetrics
# is the gang step with shared instruments, to set against
# BenchmarkStepBatch/n4_g16 in BENCH_core.json.
go test -run '^$' \
    -bench 'BenchmarkStepMetrics|BenchmarkStepBatchMetrics|BenchmarkMetrics|BenchmarkStepTrace' \
    -benchmem -count="$COUNT" ./internal/core/ ./internal/metrics/ | tee "$raw"
fold_json < "$raw" > BENCH_metrics.json
echo "wrote BENCH_metrics.json"

# The sharded fleets run at the default benchtime, so the first repetition,
# which builds the recycled shard workers, does not dominate the average.
go test -run '^$' \
    -bench 'BenchmarkFleetCampaign' \
    -benchmem -count="$COUNT" ./internal/fleet/ | tee "$raw"
fold_json < "$raw" > BENCH_fleet.json
echo "wrote BENCH_fleet.json"

# BenchmarkLaneCheckpoint is the capture and the restore of one N = 4 gang
# lane, the primitives a splitting level crossing and trial start cost.
go test -run '^$' \
    -bench 'BenchmarkSplittingCampaign|BenchmarkLaneCheckpoint' \
    -benchmem -count="$COUNT" ./internal/splitting/ ./internal/sim/ | tee "$raw"
fold_json < "$raw" > BENCH_splitting.json
echo "wrote BENCH_splitting.json"
