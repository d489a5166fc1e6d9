package sim

import (
	"fmt"
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
)

// renderDiagState flattens everything a campaign can observe from a
// diagnostic run — ground truth, consistent health vectors, isolation and
// reintegration decisions, and the protocols' final counters — into one
// comparable string.
func renderDiagState(eng *Engine, runners []*DiagRunner, col *Collector, rounds int) string {
	var b strings.Builder
	n := eng.Schedule().N()
	for d := 0; d < rounds; d++ {
		if tr := eng.Truth(d); tr != nil {
			fmt.Fprintf(&b, "truth %d: %v\n", d, tr)
		}
		byObs := col.RoundHVs(d)
		for obs := 1; obs <= n; obs++ {
			if byObs != nil && byObs[obs].Known != 0 {
				fmt.Fprintf(&b, "hv %d/%d: %s\n", d, obs, byObs[obs].String(n))
			}
		}
	}
	for _, iso := range col.Isolations {
		fmt.Fprintf(&b, "iso %+v\n", iso)
	}
	for _, re := range col.Reintegrations {
		fmt.Fprintf(&b, "rei %+v\n", re)
	}
	for id := 1; id <= n; id++ {
		pr := runners[id].Protocol().PenaltyReward()
		for j := 1; j <= n; j++ {
			fmt.Fprintf(&b, "pr %d/%d: p=%d r=%d\n", id, j, pr.Penalty(j), pr.Reward(j))
		}
	}
	return b.String()
}

// runDiagScenario injects a burst train and runs the cluster, collecting the
// full observable state into col (which may be a reset-reused collector).
func runDiagScenario(eng *Engine, runners []*DiagRunner, col *Collector, injectRound, startSlot, slots, rounds int) (string, error) {
	for id := 1; id <= eng.Schedule().N(); id++ {
		col.HookDiag(id, runners[id])
	}
	eng.Bus().AddDisturbance(fault.NewTrain(
		fault.SlotBurst(eng.Schedule(), injectRound, startSlot, slots)))
	if err := eng.RunRounds(rounds); err != nil {
		return "", err
	}
	return renderDiagState(eng, runners, col, rounds), nil
}

// TestClusterReuseEquivalence checks the reuse contract of the campaign
// clusters: a reset-reused cluster must produce byte-identical observable
// state to a freshly built one, even after it previously ran a different
// scenario (including one that drove isolations).
func TestClusterReuseEquivalence(t *testing.T) {
	cfg := ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 1 << 40},
	}
	const rounds = 24

	fresh, freshRunners, err := NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runDiagScenario(fresh, freshRunners, NewCollector(), 6, 3, 2, rounds)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := NewReusableDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A different first scenario: repeated bursts in node 2's slot, enough
	// to isolate it and dirty every counter, ring buffer and truth row. The
	// collector is reused across scenarios too, exercising Collector.Reset.
	col := NewCollector()
	if _, err := runDiagScenario(cl.Eng, cl.Runners, col, 5, 2, 9, rounds+6); err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	col.Reset()
	got, err := runDiagScenario(cl.Eng, cl.Runners, col, 6, 3, 2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reused cluster diverged from fresh cluster:\n--- fresh ---\n%s--- reused ---\n%s", want, got)
	}

	// A second reset must be just as clean.
	cl.Reset()
	col.Reset()
	got, err = runDiagScenario(cl.Eng, cl.Runners, col, 6, 3, 2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("second reuse diverged from fresh cluster")
	}
}
