package core

import "testing"

// newMembershipWorld builds the pure-core harness with every protocol in
// membership mode.
func newMembershipWorld(t *testing.T, ls []int, allSCR bool) *world {
	t.Helper()
	w := newWorld(t, 4, ls, allSCR, PRConfig{})
	for id := 1; id <= 4; id++ {
		cfg := w.protos[id].Config()
		cfg.Mode = ModeMembership
		p, err := NewProtocol(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.protos[id] = p
	}
	return w
}

// TestMembershipModeAccusationLifecycle exercises the accusation machinery
// at the core level, across every schedule class: an asymmetric receive
// fault makes the victim a minority of one; the other nodes accuse it, all
// obedient nodes convict it consistently, and — crucially — the accusation
// dies out: a few rounds later every disseminated syndrome is all-healthy
// again and no further convictions appear (no cascades, no ping-pong).
func TestMembershipModeAccusationLifecycle(t *testing.T) {
	for si, ls := range defaultLs {
		allSCR := si == 0
		w := newMembershipWorld(t, ls, allSCR)
		const faultRound = 8
		w.blind = func(round, sender, rcv int) bool {
			return round == faultRound && sender == 2 && rcv == 1
		}
		lag := w.protos[1].Config().Lag()
		victimConvictedAt := -1
		lastConvictionAt := -1
		for k := 0; k < 30; k++ {
			outs := w.runRound()
			if outs[1].ConsHV.Known == 0 {
				continue
			}
			ref := checkAgreement(t, w, outs)
			if ref[1] == Faulty {
				if victimConvictedAt < 0 {
					victimConvictedAt = k
				}
				lastConvictionAt = k
			}
			for _, j := range []int{2, 3, 4} {
				if ref[j] == Faulty {
					t.Fatalf("schedule %d round %d: non-victim %d convicted (%v)", si, k, j, ref)
				}
			}
		}
		if victimConvictedAt < 0 {
			t.Fatalf("schedule %d: minority victim never convicted (liveness)", si)
		}
		if victimConvictedAt > faultRound+2*(lag+1) {
			t.Fatalf("schedule %d: victim convicted at round %d, too late", si, victimConvictedAt)
		}
		// The accusation episode is bounded: convictions stop well before
		// the end of the run and the final disseminated syndromes are clean.
		if lastConvictionAt > victimConvictedAt+2*(lag+1) {
			t.Fatalf("schedule %d: convictions lingered until round %d (first at %d)",
				si, lastConvictionAt, victimConvictedAt)
		}
		for id := 1; id <= 4; id++ {
			if got := w.outputs[id].Send.String(4); got != "1111" {
				t.Fatalf("schedule %d: node %d still disseminates %s after the episode", si, id, got)
			}
		}
	}
}

// TestMembershipModeCleanRunRaisesNoAccusations: without faults the
// membership variant must behave exactly like the diagnostic one.
func TestMembershipModeCleanRunRaisesNoAccusations(t *testing.T) {
	w := newMembershipWorld(t, defaultLs[3], false)
	for k := 0; k < 20; k++ {
		outs := w.runRound()
		for id := 1; id <= 4; id++ {
			if outs[id].Accused != 0 {
				t.Fatalf("round %d: node %d accused %#x on a clean bus", k, id, outs[id].Accused)
			}
			if outs[id].ConsHV.CountFaulty(4) != 0 {
				t.Fatalf("round %d: clean-run conviction %s", k, outs[id].ConsHV.String(4))
			}
		}
	}
}
