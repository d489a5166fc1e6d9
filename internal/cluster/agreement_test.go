//go:build ttdiag_invariants

package cluster

import (
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// twoFaced is a pair of malicious senders beyond the fault hypothesis: in
// round 6 nodes 2 and 3 send node 1 a syndrome accusing node 4, while every
// other receiver gets their true syndrome.
type twoFaced struct{}

func (twoFaced) Deliver(tx *tdma.Transmission, rcv tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if rcv == 1 && tx.Round == 6 && (tx.Sender == 2 || tx.Sender == 3) {
		forged := core.NewSyndrome(4, core.Healthy)
		forged[4] = core.Faulty
		d.Payload = forged.Encode()
	}
	return d
}

func (twoFaced) SenderCollision(_ *tdma.Transmission, collided bool) bool { return collided }

// TestRoundAgreementCheckPanics drives hosted diagnostic nodes apart and
// requires the round-boundary agreement check to stop the run, once for
// each half of the check.
func TestRoundAgreementCheckPanics(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Cluster
		want  string
	}{
		// Node 2 alone does not declare the (true) all-send_curr_round
		// property, so it diagnoses one round later than its peers.
		{"diagnosed round", func(t *testing.T) *Cluster {
			cfg, err := sim.NormalizeConfig(sim.ClusterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			sched, err := tdma.NewSchedule(cfg.N, cfg.RoundLen)
			if err != nil {
				t.Fatal(err)
			}
			// The node configurations come from a cluster the builder
			// wired; only node 2's is changed.
			_, ref, err := sim.NewDiagnosticCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine(sched, nil)
			initial := core.NewSyndrome(cfg.N, core.Healthy).Encode()
			for id := 1; id <= cfg.N; id++ {
				nc := ref[id].Protocol().Config()
				nc.AllSendCurrRound = id != 2
				r, err := sim.NewDiagRunner(nc)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.AddNode(tdma.NodeID(id), cfg.Ls[id-1], r); err != nil {
					t.Fatal(err)
				}
				eng.Controller(tdma.NodeID(id)).WriteInterface(initial)
			}
			return Host(eng)
		}, "diagnose different rounds"},
		// Node 1 alone votes node 4 faulty for the forged round.
		{"health vector", func(t *testing.T) *Cluster {
			cl, err := New(sim.ClusterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cl.AddDisturbance(twoFaced{})
			return cl
		}, "health vectors diverge"},
		// The same forgery in a membership cluster: the check reads the
		// diagnostic output underlying each membership runner's.
		{"membership health vector", func(t *testing.T) *Cluster {
			cl, _, err := NewMembershipCluster(sim.ClusterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cl.AddDisturbance(twoFaced{})
			return cl
		}, "health vectors diverge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := tc.build(t)
			defer cl.Close()
			defer func() {
				r := recover()
				if r == nil {
					return // the body reports the missing failure
				}
				msg, _ := r.(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			if err := cl.RunRounds(12); err != nil {
				t.Fatal(err)
			}
			t.Fatal("diverging nodes ran 12 rounds without an agreement failure")
		})
	}
}
