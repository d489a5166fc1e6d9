package bisect

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/sim"
	"ttdiag/internal/trace"
)

func bisectCluster(t *testing.T, rec *trace.Recorder) *sim.DiagCluster {
	t.Helper()
	cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
		N:    4,
		PR:   core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3, ReintegrationThreshold: 4},
		Sink: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	// The shared fault process: node 3 bursts early, is isolated, and
	// reintegrates — identical on both sides, so the prefix agrees.
	cl.Eng.Bus().AddDisturbance(fault.EveryKthRound(3, 1, 4, 9))
	return cl
}

// TestBisectLocalizesInjectedDivergence injects a single extra slot burst
// into side B at one known round and requires the search to name exactly that
// round — in exactly 1 + log2(horizon) probes (the horizon is a power of two,
// so every split is even and the probe count is path-independent).
func TestBisectLocalizesInjectedDivergence(t *testing.T) {
	const horizon, inject = 64, 29
	var recA, recB trace.Recorder
	a := Side{Name: "base", Cluster: bisectCluster(t, &recA), Rec: &recA}
	b := Side{Name: "burst", Cluster: bisectCluster(t, &recB), Rec: &recB}
	b.Cluster.Eng.Bus().AddDisturbance(
		fault.NewTrain(fault.SlotBurst(b.Cluster.Eng.Schedule(), inject, 1, 1)))

	rep, err := FirstDivergence(a, b, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || rep.Round != inject {
		t.Fatalf("divergence localized to round %d (diverged=%v), want %d", rep.Round, rep.Diverged, inject)
	}
	if want := 1 + 6; rep.Probes != want { // full-horizon check + log2(64) bisection segments
		t.Fatalf("bisection took %d probes, want %d", rep.Probes, want)
	}
	if rep.Node < 0 || rep.Node > 4 {
		t.Fatalf("divergent state attributed to %d, want 0..4", rep.Node)
	}
	// The recorders were drained before the final replay, so any dumped event
	// belongs to the divergent round itself.
	for _, e := range append(append([]trace.Event(nil), rep.EventsA...), rep.EventsB...) {
		if e.Round != inject {
			t.Fatalf("causal dump leaked an event outside round %d: %+v", inject, e)
		}
	}
}

// TestBisectRejectsMismatchedSides covers the argument contract: an empty
// horizon and sides of different shape are errors, not searches.
func TestBisectRejectsMismatchedSides(t *testing.T) {
	a := Side{Name: "a", Cluster: bisectCluster(t, nil)}
	if _, err := FirstDivergence(a, a, 0); err == nil {
		t.Fatal("horizon 0 accepted")
	}
	small, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	small.Reset()
	if _, err := FirstDivergence(a, Side{Name: "b", Cluster: small}, 8); err == nil {
		t.Fatal("mismatched N accepted")
	}
}
