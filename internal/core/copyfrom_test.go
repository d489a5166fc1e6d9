package core

import (
	"bytes"
	"math/bits"
	"testing"

	"ttdiag/internal/rng"
	"ttdiag/internal/trace"
)

// copyFromTape records a disturbed membership-mode input sequence so the
// original, the zero-copy clone, and the JSON-restored twin all see
// identical observations.
func copyFromTape(seed int64, n, rounds int) []RoundInput {
	st := rng.NewStream(seed)
	tape := make([]RoundInput, rounds)
	for k := range tape {
		in := RoundInput{
			Round:    k,
			DMs:      make([]Syndrome, n+1),
			Validity: NewSyndrome(n, Healthy),
		}
		for j := 1; j <= n; j++ {
			if st.Bool(0.2) {
				in.Validity[j] = Faulty
				continue
			}
			s := NewSyndrome(n, Healthy)
			for m := 1; m <= n; m++ {
				if st.Bool(0.15) {
					s[m] = Faulty
				}
			}
			in.DMs[j] = s
		}
		tape[k] = in
	}
	return tape
}

// TestCopyFromMatchesJSONRestore is the differential pin for the zero-copy
// checkpoint path: at every step of a disturbed membership-mode run, a clone
// produced by CopyFrom must serialise byte-identically to the original's
// Snapshot — and to the Snapshot of a twin restored from that JSON. The
// clone is also built from a different same-shape configuration, pinning
// that CopyFrom adopts src's.
func TestCopyFromMatchesJSONRestore(t *testing.T) {
	const n, rounds = 4, 24
	cfg := Config{
		N: n, ID: 2, L: 0, SendCurrRound: true, Mode: ModeMembership,
		PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6},
	}
	// A valid but different same-N configuration for the clone instance.
	cloneCfg := Config{
		N: n, ID: 3, L: 3, SendCurrRound: false,
		PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
	}
	// The subtest name is kept from when a byte-per-entry representation ran
	// beside the bit-plane one; the bit-plane Protocol is the only one now.
	t.Run("packed=true", func(t *testing.T) {
		original, err := NewProtocol(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := NewProtocol(cloneCfg)
		if err != nil {
			t.Fatal(err)
		}
		tape := copyFromTape(77, n, rounds)
		for k := 0; k < rounds; k++ {
			if _, err := original.Step(tape[k]); err != nil {
				t.Fatalf("round %d: %v", k, err)
			}
			want, err := original.Snapshot()
			if err != nil {
				t.Fatalf("round %d: snapshot: %v", k, err)
			}
			if err := clone.CopyFrom(original); err != nil {
				t.Fatalf("round %d: CopyFrom: %v", k, err)
			}
			got, err := clone.Snapshot()
			if err != nil {
				t.Fatalf("round %d: clone snapshot: %v", k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: clone snapshot diverged\n clone: %s\n  orig: %s", k, got, want)
			}
			jsonTwin, err := RestoreProtocol(want)
			if err != nil {
				t.Fatalf("round %d: restore: %v", k, err)
			}
			twinSnap, err := jsonTwin.Snapshot()
			if err != nil {
				t.Fatalf("round %d: twin snapshot: %v", k, err)
			}
			if !bytes.Equal(twinSnap, want) {
				t.Fatalf("round %d: JSON twin snapshot diverged\n  twin: %s\n  orig: %s", k, twinSnap, want)
			}
		}
	})
}

// TestCopyFromContinuation checks behavioural equivalence after the copy: a
// clone checkpointed mid-run steps in lock-step with the original on the
// remaining tape, then keeps working after the two diverge (the clone is
// re-stepped on a shifted tape without disturbing the original).
func TestCopyFromContinuation(t *testing.T) {
	const n, rounds, checkpointAt = 4, 24, 10
	cfg := Config{
		N: n, ID: 2, L: 0, SendCurrRound: true, Mode: ModeMembership,
		PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6},
	}
	original, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tape := copyFromTape(31, n, rounds)
	for k := 0; k < rounds; k++ {
		outO, err := original.Step(tape[k])
		if err != nil {
			t.Fatal(err)
		}
		if k == checkpointAt {
			if err := clone.CopyFrom(original); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if k > checkpointAt {
			outC, err := clone.Step(tape[k])
			if err != nil {
				t.Fatal(err)
			}
			if outC.Send != outO.Send {
				t.Fatalf("round %d: send %+v != %+v", k, outC.Send, outO.Send)
			}
			if (outC.ConsHV.Known == 0) != (outO.ConsHV.Known == 0) {
				t.Fatalf("round %d: warm-up divergence", k)
			}
			if outC.ConsHV != outO.ConsHV {
				t.Fatalf("round %d: cons_hv %+v != %+v", k, outC.ConsHV, outO.ConsHV)
			}
			for j := 1; j <= n; j++ {
				if clone.PenaltyReward().Penalty(j) != original.PenaltyReward().Penalty(j) {
					t.Fatalf("round %d: penalty(%d) diverged", k, j)
				}
				if clone.PenaltyReward().IsActive(j) != original.PenaltyReward().IsActive(j) {
					t.Fatalf("round %d: activity(%d) diverged", k, j)
				}
			}
		}
	}
	// The copy must not entangle the instances: replaying the clone from its
	// own cursor with different inputs leaves the original untouched.
	wantSnap, err := original.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	divergent := copyFromTape(99, n, rounds+8)
	for k := rounds; k < rounds+8; k++ {
		in := divergent[k]
		in.Round = k
		if _, err := clone.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	gotSnap, err := original.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("stepping the clone mutated the original")
	}
	// A clone checkpointed after Step(k) must reject a replay of round 0.
	if err := clone.CopyFrom(original); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Step(tape[0]); err == nil {
		t.Fatal("cloned protocol accepted an out-of-sequence round")
	}
}

func TestCopyFromRejectsShapeMismatch(t *testing.T) {
	mk := func(n int) *Protocol {
		cfg := Config{
			N: n, ID: 1, L: 0, SendCurrRound: true,
			PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
		}
		p, err := NewProtocol(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := mk(4).CopyFrom(mk(5)); err == nil {
		t.Fatal("copy across system sizes must fail")
	}
	p := mk(4)
	if err := p.CopyFrom(p); err != nil {
		t.Fatalf("self-copy must be a no-op, got %v", err)
	}
}

// TestBatchCopyFromContinuation is the gang-path equivalent: a batch clone
// checkpointed mid-run must agree with the original on every subsequent
// output value and serialise every lane byte-identically — in diagnostic
// mode, and in membership mode with accusations pending in the TTL and age
// registers at the checkpoint.
func TestBatchCopyFromContinuation(t *testing.T) {
	const n, lanes, rounds, checkpointAt = 4, 3, 32, 12
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"diag", Config{
			N: n, ID: 2, L: 2, SendCurrRound: false, Mode: ModeDiagnostic,
			PR: PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
		}},
		{"membership", Config{
			N: n, ID: 2, L: 0, SendCurrRound: true, Mode: ModeMembership,
			PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gang, err := NewBatchProtocol(tc.cfg, lanes)
			if err != nil {
				t.Fatal(err)
			}
			clone, err := NewBatchProtocol(tc.cfg, lanes)
			if err != nil {
				t.Fatal(err)
			}
			streams := make([]*rng.Stream, lanes)
			for r := range streams {
				streams[r] = rng.NewStream(int64(4200 + r))
			}
			laneIns := make([]PackedRoundInput, lanes)
			mkInput := func(round int) BatchRoundInput {
				var collisionFaulty uint64
				for r := range laneIns {
					if (round+r)%5 == 0 {
						collisionFaulty |= 1 << uint(r)
					}
					if tc.cfg.Mode == ModeMembership {
						laneIns[r] = membershipPackedInput(streams[r], n, tc.cfg.ID, round, nil)
					} else {
						laneIns[r] = randomPackedInput(streams[r], n, round, nil)
					}
				}
				return packGangInput(n, round, laneIns, collisionFaulty)
			}
			accused := 0
			for k := 0; k < rounds; k++ {
				in := mkInput(k)
				outO, err := gang.StepBatch(in)
				if err != nil {
					t.Fatalf("round %d: %v", k, err)
				}
				if k == checkpointAt {
					if err := clone.CopyFrom(gang); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if k > checkpointAt {
					outC, err := clone.StepBatch(in)
					if err != nil {
						t.Fatalf("round %d: clone: %v", k, err)
					}
					if outC != outO {
						t.Fatalf("round %d: gang outputs diverged\nclone: %+v\n orig: %+v", k, outC, outO)
					}
					accused += bits.OnesCount64(outO.AccusedMask)
					for lane := 0; lane < lanes; lane++ {
						got, err := clone.SnapshotLane(lane)
						if err != nil {
							t.Fatal(err)
						}
						want, err := gang.SnapshotLane(lane)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("round %d lane %d: snapshots diverged", k, lane)
						}
					}
				}
			}
			if tc.cfg.Mode == ModeMembership && accused == 0 {
				t.Fatal("membership run raised no accusations after the checkpoint")
			}
		})
	}
}

func TestBatchCopyFromRejectsSizeMismatch(t *testing.T) {
	mk := func(n int) *BatchProtocol {
		cfg := Config{
			N: n, ID: 1, L: n - 1, SendCurrRound: false,
			PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
		}
		p, err := NewBatchProtocol(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := mk(4).CopyFrom(mk(5)); err == nil {
		t.Fatal("batch copy across system sizes must fail")
	}
	// Counters are sized for the construction-time lane count: a narrower
	// instance cannot take a wider gang, a wider one takes a narrower gang.
	narrow, err := NewBatchProtocol(mk(4).Config(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.CopyFrom(mk(4)); err == nil {
		t.Fatal("batch copy of 2 lanes into a 1-lane capacity must fail")
	}
	if err := mk(4).CopyFrom(narrow); err != nil {
		t.Fatalf("batch copy of 1 lane into a 2-lane capacity: %v", err)
	}
	p := mk(4)
	if err := p.CopyFrom(p); err != nil {
		t.Fatalf("batch self-copy must be a no-op, got %v", err)
	}
}

// TestLaneRecordsRejects pins the preconditions of the lane record pair:
// membership-mode protocols are refused, since a lane record leaves out the
// accusation registers, and so are lanes outside the gang, mismatched
// record counts and records too short for the node.
func TestLaneRecordsRejects(t *testing.T) {
	mk := func(mode Mode) *BatchProtocol {
		p, err := NewBatchProtocol(Config{
			N: 4, ID: 2, L: 0, SendCurrRound: true, Mode: mode,
			PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 2},
		}, 16)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rec := make([]uint64, LaneRecordLen(4))
	mem := mk(ModeMembership)
	if err := mem.CaptureLane(0, rec); err == nil {
		t.Error("lane capture in membership mode accepted")
	}
	if err := mem.RestoreLanes(1, [][]uint64{rec}, 0); err == nil {
		t.Error("lane restore in membership mode accepted")
	}
	p := mk(ModeDiagnostic)
	if err := p.CaptureLane(16, rec); err == nil {
		t.Error("capture of lane 16 of a 16-lane gang accepted")
	}
	if err := p.CaptureLane(0, rec[1:]); err == nil {
		t.Error("capture into a short record accepted")
	}
	if err := p.CaptureLane(3, rec); err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreLanes(1<<16, [][]uint64{rec}, 0); err == nil {
		t.Error("restore of lane 16 of a 16-lane gang accepted")
	}
	if err := p.RestoreLanes(0b11, [][]uint64{rec}, 0); err == nil {
		t.Error("restore of two lanes from one record accepted")
	}
	if err := p.RestoreLanes(1, [][]uint64{rec}, 1); err == nil {
		t.Error("restore from a record running past its buffer accepted")
	}
	if err := p.RestoreLanes(0b101, [][]uint64{rec, rec}, 0); err != nil {
		t.Fatalf("restore of lanes 0 and 2: %v", err)
	}
}

// quietGang builds node 1 of a 16-lane N=4 gang and steps it four rounds
// on all-Healthy rows.
func quietGang(t *testing.T) *BatchProtocol {
	t.Helper()
	p, err := NewBatchProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]BitSyndrome, 5)
	for j := range rows {
		rows[j] = BitSyndrome{Op: p.allB, Known: p.allB}
	}
	in := BatchRoundInput{Rows: rows, Present: p.allB, Validity: rows[1]}
	for k := 0; k < 4; k++ {
		in.Round = k
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestRestoreLanesResyncsTrace restores a lane whose observer holds a
// penalty of 3 for node 2 into a traced lane: the lane's flight recorder
// re-baselines on the restored counters, so the next step, which leaves
// them alone, records no penalty change.
func TestRestoreLanesResyncsTrace(t *testing.T) {
	dst, src := quietGang(t), quietGang(t)
	var rec trace.Recorder
	dst.SetLaneTrace(6, NewStepTrace(&rec))
	src.pr.penalties[1*5+2] = 3 // lane 1, node 2
	st := make([]uint64, LaneRecordLen(4))
	if err := src.CaptureLane(1, st); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreLanes(1<<6, [][]uint64{st}, 0); err != nil {
		t.Fatal(err)
	}
	rows := make([]BitSyndrome, 5)
	for j := range rows {
		rows[j] = BitSyndrome{Op: dst.allB, Known: dst.allB}
	}
	if _, err := dst.StepBatch(BatchRoundInput{Round: 4, Rows: rows, Present: dst.allB, Validity: rows[1]}); err != nil {
		t.Fatal(err)
	}
	if got := dst.LanePenalty(6, 2); got != 3 {
		t.Fatalf("restored lane's penalty for node 2 is %d after a quiet step, want 3", got)
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindPenalty {
			t.Fatalf("the restored lane's recorder saw a penalty change: %+v", e)
		}
	}
}
