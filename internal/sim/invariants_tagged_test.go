//go:build ttdiag_invariants

package sim

import (
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/tdma"
)

// expectPanic runs f and requires it to panic with a message containing
// want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no invariant failure, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestBatchAgreementCheckPanics drives the observers of a gang apart and
// requires the round-boundary Theorem 1 check to stop the run, once for
// each half of the check.
func TestBatchAgreementCheckPanics(t *testing.T) {
	t.Run("diagnosed round", func(t *testing.T) {
		// Node 2 alone does not declare the (true) all-send_curr_round
		// property, so it diagnoses one round later than its peers.
		bc, err := NewBatchDiagCluster(ClusterConfig{AllSendCurrRound: true})
		if err != nil {
			t.Fatal(err)
		}
		nc := bc.cfg.nodeConfig(2)
		nc.AllSendCurrRound = false
		if err := bc.protos[2].ResetConfig(nc); err != nil {
			t.Fatal(err)
		}
		bc.lag[2] = nc.Lag()
		expectPanic(t, "diagnose different rounds", func() {
			for k := 0; k < 8; k++ {
				if err := bc.Step(); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	t.Run("health vector", func(t *testing.T) {
		// In lane 6 nodes 1 and 2 transmit syndromes accusing node 3 that
		// their own protocols did not compute: every receiver gets the
		// same bytes, so no delivery is faulty, but node 1 votes with its
		// own true row and node 4 with the two forged ones.
		bc, err := NewBatchDiagCluster(ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		bc.OnOutput = func(id int, _ *core.BatchRoundOutput) {
			if id <= 2 {
				bc.staged[id] &^= 1 << (6*4 + 2)
			}
		}
		expectPanic(t, "lane 6: health vectors diverge", func() {
			for k := 0; k < 8; k++ {
				if err := bc.Step(); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
}

// TestBatchRestoreRecaptureMismatchPanics restores a lane checkpoint whose
// staged outbox carries a bit beyond the lane's segment, which the restore
// cannot keep: the re-captured lane differs and the check must stop.
func TestBatchRestoreRecaptureMismatchPanics(t *testing.T) {
	bc, err := NewBatchDiagCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck := make([]uint64, bc.LaneRecordLen())
	if err := bc.CaptureLaneRecord(2, ck); err != nil {
		t.Fatal(err)
	}
	ck[bc.recBus()+busStaged*4+2] |= 1 << 4 // node 3's outbox, node 5 of a 4-node lane
	expectPanic(t, "restored lane 9 does not re-capture", func() {
		_ = bc.RestoreLanes(1<<9, [][]uint64{ck})
	})
}

// lyingQuiet claims it never touches any sender but corrupts one
// transmission the way its mode says: invalid, altered, blinded at one
// receiver, or colliding at the sender.
type lyingQuiet struct {
	sender tdma.NodeID
	round  int
	mode   string
}

func (l lyingQuiet) hits(tx *tdma.Transmission) bool {
	return tx.Sender == l.sender && tx.Round == l.round
}

func (l lyingQuiet) QuietUntil(*tdma.Transmission) tdma.Wake { return tdma.WakeNever }

func (l lyingQuiet) Deliver(tx *tdma.Transmission, _ tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	switch {
	case !l.hits(tx):
	case l.mode == "invalid":
		return tdma.Delivery{}
	case l.mode == "altered":
		d.Payload = append([]byte(nil), d.Payload...)
		d.Payload[0] ^= 1
	}
	return d
}

func (l lyingQuiet) SenderCollision(tx *tdma.Transmission, collided bool) bool {
	return collided || (l.mode == "collision" && l.hits(tx))
}

// lyingBlinder is lyingQuiet with a receiver mask.
type lyingBlinder struct{ lyingQuiet }

func (l lyingBlinder) Blinded(tx *tdma.Transmission) uint64 {
	if l.hits(tx) {
		return tdma.ReceiverBit(1)
	}
	return 0
}

// TestQuietClaimCheckPanics gives a lane a disturbance that claims every
// slot quiet but touches one: the check that sends every quiet lane·slot
// through the chain as well must stop the run, whichever way it touches.
func TestQuietClaimCheckPanics(t *testing.T) {
	for _, mode := range []string{"invalid", "altered", "collision", "blinded"} {
		t.Run(mode, func(t *testing.T) {
			bc, err := NewBatchDiagCluster(ClusterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var d tdma.Disturbance = lyingQuiet{sender: 2, round: 5, mode: mode}
			if mode == "blinded" {
				d = lyingBlinder{lyingQuiet{sender: 2, round: 5, mode: mode}}
			}
			bc.AddLaneDisturbance(3, d)
			expectPanic(t, "round 5 slot 2 lane 3: the disturbance chain claimed the transmission quiet", func() {
				for k := 0; k < 8; k++ {
					if err := bc.Step(); err != nil {
						t.Fatal(err)
					}
				}
			})
		})
	}
}
