#!/usr/bin/env bash
# check.sh is the repository's full correctness gate: formatting, go vet,
# build, tests, the race detector on the concurrent packages, the
# ttdiag_invariants-enabled test run, the static-analysis suite
# (cmd/ttdiag-lint) and the escape-analysis allocation gate. CI runs this
# script; run it locally before sending a PR. Every step that selects
# tests with -run goes through scripts/gotest.sh, which fails when a pattern
# matches nothing. Each step reports its wall-clock duration, and a summary
# table prints at the end. With LINT_JSON set to a file name, the lint step
# also writes its findings there as JSON (CI uploads that report). See
# docs/STATIC_ANALYSIS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

timings=()

# step <title> <command...> runs one gate step, timing it.
step() {
    local title=$1
    shift
    echo "== $title =="
    local start=$SECONDS
    "$@"
    local elapsed=$((SECONDS - start))
    timings+=("$(printf '%4ds  %s' "$elapsed" "$title")")
}

check_gofmt() {
    local unformatted
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

# check_lint runs the analyzer and the escape gate; pipefail keeps tee from
# masking its exit code.
check_lint() {
    if [ -n "${LINT_JSON:-}" ]; then
        go run ./cmd/ttdiag-lint -json -escapes ./... | tee "$LINT_JSON"
    else
        go run ./cmd/ttdiag-lint -escapes ./...
    fi
}

check_metrics_determinism() {
    scripts/gotest.sh -race -cpu=1,4 ./internal/experiments/ -run TestMetricsWorkerCountInvariance
    scripts/gotest.sh -race -cpu=1,4 ./internal/cluster/ -run TestClusterMetricsMatchLockStep
}

check_batched_determinism() {
    scripts/gotest.sh -race -cpu=1,4 ./internal/experiments/ \
        -run 'TestBatchedWorkerCountInvariance|TestBatchedCampaignEquivalence|TestTracedCampaignEquivalence|TestScaleResilienceBatchedEquivalence|TestScaleResilienceProgress|TestTable4Progress|TestScoreboardProgress'
    scripts/gotest.sh -race -cpu=1,4 ./internal/tuning/ -run TestTimeToIncorrectIsolationMatchesPerRun
}

check_fleet_determinism() {
    scripts/gotest.sh -race -cpu=1,4 ./internal/fleet/ \
        -run 'TestFleetWorkerCountInvariance|TestFleetShardOrderInvariance|TestFleetLanePackedMatchesPerRun|TestGatewayMatchesPerRunProtocol|TestFleetCausalWorkerInvariance'
    scripts/gotest.sh -race -cpu=1,4 ./internal/experiments/ -run TestFleetCampaignWorkerCountInvariance
}

check_checkpoint_determinism() {
    scripts/gotest.sh -race -cpu=1,4 ./internal/core/ -run 'TestCopyFromMatchesJSONRestore|TestCopyFromContinuation'
    scripts/gotest.sh -race -cpu=1,4 ./internal/sim/ -run 'TestClusterCheckpointRewind|TestClusterCheckpointCrossCluster|TestLaneCheckpointRoundTrip'
    scripts/gotest.sh -race -cpu=1,4 ./internal/splitting/ -run 'TestRunWorkerCountInvariance|TestRunMatchesDirectMonteCarlo|TestRunMatchesPerRun'
    scripts/gotest.sh -race -cpu=1,4 ./internal/experiments/ -run TestRareEventCampaignWorkerCountInvariance
}

step "gofmt" check_gofmt
step "go vet" go vet ./...
# The benchmark probe has no tests and is only built by -trace launches, so
# vetting the benchmark module is what compile-checks it against core API
# changes.
step "go vet (benchmark module)" go -C cmd/ttdiag-bench vet ./...
step "go build" go build ./...
step "go test" go test ./...
# The benchmark is its own module, which the root ./... skips. Its smoke test
# checks the committed stdout digests of every workload's setup launch.
step "go test (benchmark smoke test)" go -C cmd/ttdiag-bench test ./...
step "go test -race (concurrent packages)" \
    go test -race ./internal/cluster/... ./internal/sim/... ./internal/campaign/... ./internal/fleet/... ./internal/splitting/... ./internal/trace/...
step "go test -race -cpu=1,4 (campaign determinism)" \
    scripts/gotest.sh -race -cpu=1,4 ./internal/experiments/ -run TestCampaignWorkerCountInvariance
step "go test -race -cpu=1,4 (metrics determinism)" check_metrics_determinism
step "go test -race -cpu=1,4 (cluster reuse equivalence)" \
    scripts/gotest.sh -race -cpu=1,4 ./internal/sim/ -run 'TestClusterReuseEquivalence|TestBatchClusterReset|TestBatchClusterRunResumes'
step "go test -race -cpu=1,4 (protocol vs reference)" \
    scripts/gotest.sh -race -cpu=1,4 ./internal/core/ -run 'TestPackedScalarStepEquivalence|TestPackedScalarTraceEquivalence'
step "go test -race -cpu=1,4 (batched campaign determinism)" check_batched_determinism
step "go test -race -cpu=1,4 (fleet determinism)" check_fleet_determinism
step "go test -race -cpu=1,4 (checkpoint + splitting determinism)" check_checkpoint_determinism
step "go test (allocation ceilings)" \
    scripts/gotest.sh ./internal/core/ ./internal/tdma/ ./internal/sim/ ./internal/fleet/ -run 'Allocs'
step "go test -fuzz (packed voting kernel, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/core/ -run FuzzVoteAll -fuzz 'FuzzVoteAll$' -fuzztime 15s
step "go test -fuzz (lane-packed voting kernel, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/core/ -run FuzzVoteAllBatch -fuzz 'FuzzVoteAllBatch$' -fuzztime 15s
step "go test -fuzz (quiet slots, answering vs hidden Quieter chains, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/sim/ -run FuzzQuietSlots -fuzz 'FuzzQuietSlots$' -fuzztime 15s
step "go test -fuzz (quiet-round shortcuts, hinted vs unhinted gang, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/core/ -run FuzzStepBatchQuiet -fuzz 'FuzzStepBatchQuiet$' -fuzztime 15s
step "go test -fuzz (Alg. 1 kernel vs reference, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/core/ -run FuzzProtocolStep -fuzz 'FuzzProtocolStep$' -fuzztime 15s
step "go test -fuzz (snapshot restore, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/core/ -run FuzzRestoreProtocol -fuzz 'FuzzRestoreProtocol$' -fuzztime 15s
step "go test -fuzz (trace JSONL decoder, seed corpus + short fuzz)" \
    scripts/gotest.sh ./internal/trace/ -run FuzzReadJSONL -fuzz 'FuzzReadJSONL$' -fuzztime 15s
step "go test -tags ttdiag_invariants" \
    go test -tags ttdiag_invariants ./internal/core/... ./internal/invariant/... ./internal/cluster/... ./internal/sim/... ./internal/fleet/... ./internal/splitting/... ./internal/experiments/... ./internal/membership/... ./internal/replay/... ./cmd/ttdiag-trace/...
step "ttdiag-lint (+ escape gate)" check_lint

echo
echo "== step timings =="
for t in "${timings[@]}"; do
    echo "$t"
done
echo "All checks passed."
