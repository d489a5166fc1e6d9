package sim

import (
	"errors"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/membership"
)

// TestScalarFallbackBeyondPackedBound pins what replaced the byte-per-entry
// fallback beyond the packed bound: every constructor of an unsharded system
// refuses N = MaxPackedN+1 with the one error that points to internal/fleet.
func TestScalarFallbackBeyondPackedBound(t *testing.T) {
	n := core.MaxPackedN + 1
	cfg := core.Config{N: n, ID: 1, L: 0, SendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}}
	// The config alone decides the refusal; FuzzRestoreProtocol in core is
	// seeded with a complete 65-node snapshot.
	snapshot := []byte(`{"config":{"N":65,"ID":1,"L":0,"SendCurrRound":true,"Mode":1,` +
		`"PR":{"PenaltyThreshold":1,"RewardThreshold":1}},"steps":0}`)
	for _, tc := range []struct {
		name  string
		build func() error
	}{
		{"core.NewProtocol", func() error { _, err := core.NewProtocol(cfg); return err }},
		{"core.NewPenaltyReward", func() error { _, err := core.NewPenaltyReward(n, cfg.PR); return err }},
		{"core.RestoreProtocol", func() error { _, err := core.RestoreProtocol(snapshot); return err }},
		{"membership.New", func() error { _, err := membership.New(cfg); return err }},
		{"sim.NewDiagnosticCluster", func() error { _, _, err := NewDiagnosticCluster(ClusterConfig{N: n}); return err }},
		{"sim.NewMembershipCluster", func() error { _, _, err := NewMembershipCluster(ClusterConfig{N: n}); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build()
			if !errors.Is(err, core.ErrBeyondPackedBound) {
				t.Fatalf("N=%d: got %v, want the flat-bound error", n, err)
			}
		})
	}
}

// TestPackedRunnersSelectPackedPath pins the plane-form outputs of the sim
// hot path: after a fault-free run every node's packed health and activity
// vectors cover the whole system.
func TestPackedRunnersSelectPackedPath(t *testing.T) {
	eng, runners, err := NewDiagnosticCluster(ClusterConfig{Ls: Staircase(4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		out := runners[id].Last()
		if out.ConsHV.Known != core.PlaneMask(4) {
			t.Fatalf("node %d: ConsHV not fully known: %+v", id, out.ConsHV)
		}
		if out.Active != core.PlaneMask(4) {
			t.Fatalf("node %d: fault-free Active = %x", id, out.Active)
		}
	}
}
