package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/trace"
)

// TestClusterCausalEvents drives a fault burst through a full cluster and
// checks node 1's flight-recorder stream end to end: the penalty ramp with
// threshold state, the isolation with its trajectory, the reintegration —
// and that trace.Explain reconstructs the causal chain from the recorded
// stream alone.
func TestClusterCausalEvents(t *testing.T) {
	var rec trace.Recorder
	// Low thresholds: node 3, faulted every round of a burst window, ramps
	// to isolation and — once the window passes — back to reintegration.
	cl, err := NewReusableDiagnosticCluster(ClusterConfig{
		N:    4,
		PR:   core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3, ReintegrationThreshold: 4},
		Sink: &rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	cl.Eng.Bus().AddDisturbance(fault.EveryKthRound(3, 1, 4, 9))
	if err := cl.Eng.RunRounds(30); err != nil {
		t.Fatal(err)
	}

	events := rec.Events()
	var isolations, penalties, reints []trace.Event
	for _, e := range events {
		switch e.Kind {
		case trace.KindPenalty:
			penalties = append(penalties, e)
		case trace.KindIsolation:
			isolations = append(isolations, e)
		case trace.KindReintegration:
			reints = append(reints, e)
		}
	}
	if len(isolations) != 1 || isolations[0].Subject != 3 {
		t.Fatalf("want exactly one isolation of node 3, got %v", isolations)
	}
	iso := isolations[0]
	if iso.Node != 1 {
		t.Fatalf("causal events must come from observer node 1, got %+v", iso)
	}
	if iso.Penalty <= iso.Threshold || iso.Threshold != 2 {
		t.Fatalf("isolation counter state %d/%d does not show a crossing", iso.Penalty, iso.Threshold)
	}
	if iso.Detail == "" {
		t.Fatalf("isolation lacks its penalty trajectory")
	}
	if len(penalties) < 2 {
		t.Fatalf("want the penalty ramp before the isolation, got %v", penalties)
	}
	if len(reints) != 1 || reints[0].Subject != 3 || reints[0].Round <= iso.Round {
		t.Fatalf("want one reintegration of node 3 after round %d, got %v", iso.Round, reints)
	}

	chain, err := trace.Explain(events, 3, iso.Round)
	if err != nil {
		t.Fatal(err)
	}
	if last := chain[len(chain)-1]; last.Kind != trace.KindIsolation || last.Round != iso.Round {
		t.Fatalf("Explain chain ends in %+v, want the round-%d isolation", last, iso.Round)
	}
	for _, e := range chain[:len(chain)-1] {
		if e.Subject != 3 {
			t.Fatalf("chain event about node %d, want 3: %+v", e.Subject, e)
		}
	}
}

// TestMembershipClusterEmitsViewChange: a crashed node is eventually
// convicted and excluded; node 1's sink must carry the view-change causal
// event alongside the accusation/penalty stream.
func TestMembershipClusterEmitsViewChange(t *testing.T) {
	var rec trace.Recorder
	cl, err := NewReusableMembershipCluster(ClusterConfig{
		N:    4,
		PR:   core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
		Sink: &rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	cl.Eng.Bus().AddDisturbance(fault.Crash(3, 5))
	if err := cl.Eng.RunRounds(20); err != nil {
		t.Fatal(err)
	}
	views := rec.Filter(trace.KindViewChange)
	if len(views) == 0 {
		t.Fatalf("no view-change events after a crash; stream: %v", rec.Events())
	}
	if views[0].Node != 1 || views[0].Detail == "" {
		t.Fatalf("view-change event malformed: %+v", views[0])
	}
	if got := cl.Runners[1].View(); got.Contains(3) {
		t.Fatalf("node 3 still in the view after crashing: %+v", got)
	}
}
