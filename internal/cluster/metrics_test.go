package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/metrics"
	"ttdiag/internal/sim"
)

// TestClusterMetricsMatchLockStep runs the same randomized fault schedule
// through the lock-step engine and the goroutine-per-node runtime with
// telemetry attached to every protocol, and asserts byte-identical merged
// snapshots. Each node gets instruments from its own registry — a Registry
// is single-goroutine by contract — and the per-node registries are merged
// exactly like campaign worker registries. Run under -race (scripts/check.sh
// runs this package with it), this doubles as the proof that metrics
// emission adds no cross-goroutine state to the hot path.
func TestClusterMetricsMatchLockStep(t *testing.T) {
	const rounds = 32
	const seed = 7
	cfg := sim.ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{
			PenaltyThreshold:       5,
			RewardThreshold:        12,
			ReintegrationThreshold: 10,
		},
	}

	lockStep := func() []byte {
		eng, runners, err := sim.NewDiagnosticCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := metrics.NewWorkerSet()
		for id := 1; id <= 4; id++ {
			runners[id].Protocol().SetMetrics(core.NewStepMetrics(ws.Worker()))
		}
		for _, d := range stressDisturbances(seed) {
			eng.Bus().AddDisturbance(d)
		}
		if err := eng.RunRounds(rounds); err != nil {
			t.Fatal(err)
		}
		return mergedJSON(t, ws)
	}

	concurrent := func() []byte {
		eng, runners, err := sim.NewDiagnosticCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := metrics.NewWorkerSet()
		for id := 1; id <= 4; id++ {
			// Attached before the node goroutines start; each protocol
			// updates only its own registry from its own goroutine.
			runners[id].Protocol().SetMetrics(core.NewStepMetrics(ws.Worker()))
		}
		cl := Host(eng)
		defer cl.Close()
		for _, d := range stressDisturbances(seed) {
			cl.AddDisturbance(d)
		}
		if err := cl.RunRounds(rounds); err != nil {
			t.Fatal(err)
		}
		// The mailbox rendezvous of the last RunRound establishes the
		// happens-before edge that makes reading the registries safe here.
		return mergedJSON(t, ws)
	}

	ref := lockStep()
	got := concurrent()
	if !bytes.Equal(ref, got) {
		t.Fatalf("concurrent-runtime metrics diverged from lock-step\nlock-step:  %s\nconcurrent: %s", ref, got)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(ref, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["protocol/steps"] != 4*rounds {
		t.Fatalf("steps = %d, want %d", snap.Counters["protocol/steps"], 4*rounds)
	}
	if snap.Counters["vote/faulty"] == 0 || snap.Counters["pr/isolations"] == 0 {
		t.Fatalf("stress schedule under-exercised the instruments: %v", snap.Counters)
	}
}

func mergedJSON(t *testing.T, ws *metrics.WorkerSet) []byte {
	t.Helper()
	snap, err := ws.Merged()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
