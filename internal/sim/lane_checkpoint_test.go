package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/invariant"
	"ttdiag/internal/tdma"
)

// laneFaults is a receiver-uniform benign fault pattern with a round
// offset: a hashed quarter of all transmissions fail, and every round
// congruent to 9 mod 10 is a blackout of every slot, which leaves each
// node's own column without a vote (⊥) and so makes the Lemma 3 fallback
// read the node's collision history. off maps the round the fault sees
// onto the round of the run it stands for, as a restored gang lane needs.
type laneFaults struct {
	seed uint64
	off  int
}

func (f *laneFaults) predicate() fault.Predicate {
	return fault.Predicate{Match: func(tx *tdma.Transmission) bool {
		round := tx.Round + f.off
		if round%10 == 9 {
			return true
		}
		x := f.seed ^ uint64(round)*0x9e3779b97f4a7c15 ^ uint64(tx.Sender)*0xbf58476d1ce4e5b9
		x ^= x >> 29
		x *= 0x94d049bb133111eb
		return (x>>32)%4 == 0
	}}
}

// faultedGang builds a full gang whose lane r runs under laneFaults
// {seed + r}, stepped for `rounds` rounds.
func faultedGang(t *testing.T, cfg ClusterConfig, seed uint64, rounds int) (*BatchDiagCluster, []*laneFaults) {
	t.Helper()
	bc, err := NewBatchDiagCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := make([]*laneFaults, bc.Lanes())
	for r := range faults {
		faults[r] = &laneFaults{seed: seed + uint64(r)}
		bc.AddLaneDisturbance(r, faults[r].predicate())
	}
	for k := 0; k < rounds; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return bc, faults
}

// snapshotSansSteps is a protocol snapshot without its round cursor, which
// differs between a gang and a per-run cluster at different rounds.
func snapshotSansSteps(t *testing.T, snap []byte, err error) map[string]any {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(snap, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "steps")
	return m
}

// TestLaneCheckpointRoundTrip captures lane 5 of a faulted gang at an even
// round and restores it into lane 11 of another faulted gang at an odd
// round, next to a per-run cluster restored from the ClusterCheckpoint of
// the same run. Stepped on under one fault process (shifted by the round
// offset on the gang side), the restored lane must match the per-run
// cluster every round: every node's full protocol state (penalties,
// rewards, observation counters, alignment buffers, accusation registers)
// and its output. The capture follows a blackout round whose ⊥ fallback is
// diagnosed after the restore, so the re-anchored collision history is
// read.
func TestLaneCheckpointRoundTrip(t *testing.T) {
	const (
		src, dst      = 5, 11
		captureAt     = 20 // even
		restoreAt     = 7  // odd: the other alignment buffer is read next
		rounds        = 30
		before, after = 0x5eed, 0xfeed
	)
	for _, pr := range []core.PRConfig{
		{PenaltyThreshold: 3, RewardThreshold: 2},
		{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 5},
	} {
		t.Run(fmt.Sprintf("reintegration=%d", pr.ReintegrationThreshold), func(t *testing.T) {
			cfg := ClusterConfig{N: 4, PR: pr}
			a, _ := faultedGang(t, cfg, before-src, captureAt)
			ck := make([]uint64, a.LaneRecordLen())
			if err := a.CaptureLaneRecord(src, ck); err != nil {
				t.Fatal(err)
			}

			// The per-run twin of lane src, captured at the same round.
			p, err := NewReusableDiagnosticCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Reset()
			p.Eng.Bus().AddDisturbance((&laneFaults{seed: before}).predicate())
			if err := p.Eng.RunRounds(captureAt); err != nil {
				t.Fatal(err)
			}
			cp, err := NewClusterCheckpoint(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.Capture(p); err != nil {
				t.Fatal(err)
			}

			b, faults := faultedGang(t, cfg, 0xb0b, restoreAt)
			if err := b.RestoreLanes(1<<uint(dst), [][]uint64{ck}); err != nil {
				t.Fatal(err)
			}
			*faults[dst] = laneFaults{seed: after, off: captureAt - restoreAt}
			q, err := NewReusableDiagnosticCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			q.Reset()
			q.Eng.Bus().AddDisturbance((&laneFaults{seed: after}).predicate())
			if err := cp.Restore(q); err != nil {
				t.Fatal(err)
			}

			outs := make([]core.BatchRoundOutput, 5)
			b.OnOutput = func(id int, out *core.BatchRoundOutput) { outs[id] = *out }
			isolations := 0
			for k := 0; k < rounds; k++ {
				if err := b.Step(); err != nil {
					t.Fatal(err)
				}
				if err := q.Eng.RunRound(); err != nil {
					t.Fatal(err)
				}
				for id := 1; id <= 4; id++ {
					gs, err := b.Proto(id).SnapshotLane(dst)
					got := snapshotSansSteps(t, gs, err)
					ws, err := q.Runners[id].Protocol().Snapshot()
					want := snapshotSansSteps(t, ws, err)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d node %d: restored lane state\n got %v\nwant %v", k, id, got, want)
					}
					o, w := outs[id], q.Runners[id].Last()
					if o.LaneConsHV(dst, 4) != w.ConsHV || o.LaneSend(dst, 4) != w.Send ||
						o.LaneActiveMask(dst, 4) != w.Active || o.LaneIsolated(dst, 4) != w.Isolated ||
						o.LaneReintegrated(dst, 4) != w.Reintegrated ||
						o.DiagnosedRound+captureAt-restoreAt != w.DiagnosedRound {
						t.Fatalf("round %d node %d: restored lane output %+v, per-run %+v", k, id, o, w)
					}
					isolations += bitsSet(w.Isolated)
				}
			}
			if isolations == 0 {
				t.Fatal("no isolation after the restore; the fault pattern exercises too little")
			}
		})
	}
}

func bitsSet(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// TestLaneCheckpointRejects pins the lane checkpoint's preconditions: a
// diagnostic cluster of the checkpoint's N, a live lane, and for a restore
// a gang past the diagnosis lag.
func TestLaneCheckpointRejects(t *testing.T) {
	bc, _ := faultedGang(t, ClusterConfig{N: 4}, 1, 2)
	ck := make([]uint64, bc.LaneRecordLen())
	if err := bc.CaptureLaneRecord(16, ck); err == nil {
		t.Error("capture of lane 16 of a 16-lane gang accepted")
	}
	if err := bc.CaptureLaneRecord(0, ck); err != nil {
		t.Fatal(err)
	}
	if err := bc.RestoreLanes(1, [][]uint64{ck}); err == nil {
		t.Error("restore into a gang at round 2, before the lag of 3, accepted")
	}
	wide, _ := faultedGang(t, ClusterConfig{N: 5}, 1, 4)
	if err := wide.RestoreLanes(1, [][]uint64{ck}); err == nil {
		t.Error("N=4 checkpoint restored into an N=5 gang")
	}
	mem, err := NewBatchDiagCluster(ClusterConfig{Mode: core.ModeMembership})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.CaptureLaneRecord(0, make([]uint64, mem.LaneRecordLen())); err == nil {
		t.Error("lane capture in a membership cluster accepted")
	}
}

// TestRestoreLanesRoundTrip refills five lanes of a faulted gang with one
// RestoreLanes call from records captured in five other lanes of another
// gang, handed out in a different order, and its twin one lane at a time
// with one-lane RestoreLanes calls. Right after the refill every refilled lane re-captures
// to its record; stepped on under the same faults, the two gangs must hold
// the same state in every lane every round: a refill restores exactly the
// lanes of its mask, each from its own record, and leaves the others be.
func TestRestoreLanesRoundTrip(t *testing.T) {
	const (
		captureAt = 20
		restoreAt = 7
		rounds    = 30
	)
	cfg := ClusterConfig{N: 4, PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 5}}
	a, _ := faultedGang(t, cfg, 0x5eed, captureAt)
	from := []int{13, 1, 9, 4, 6} // source lane of the i-th refilled lane
	dest := []int{0, 3, 7, 8, 15}
	recs := make([][]uint64, len(from))
	var mask uint64
	for i, src := range from {
		recs[i] = make([]uint64, a.LaneRecordLen())
		if err := a.CaptureLaneRecord(src, recs[i]); err != nil {
			t.Fatal(err)
		}
		mask |= 1 << uint(dest[i])
	}
	all, allFaults := faultedGang(t, cfg, 0xb0b, restoreAt)
	one, oneFaults := faultedGang(t, cfg, 0xb0b, restoreAt)
	if err := all.RestoreLanes(mask, recs); err != nil {
		t.Fatal(err)
	}
	for i, r := range dest {
		if err := one.RestoreLanes(1<<uint(r), [][]uint64{recs[i]}); err != nil {
			t.Fatal(err)
		}
		*allFaults[r] = laneFaults{seed: 0xfeed + uint64(i), off: captureAt - restoreAt}
		*oneFaults[r] = *allFaults[r]
	}
	got := make([]uint64, all.LaneRecordLen())
	if !invariant.Enabled { // invariant builds keep fault history the gang cannot hold
		for i, r := range dest {
			if err := all.CaptureLaneRecord(r, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, recs[i]) {
				t.Fatalf("lane %d does not re-capture to the record of lane %d it was refilled from", r, from[i])
			}
		}
	}
	want := make([]uint64, all.LaneRecordLen())
	isolations := 0
	for k := 0; k < rounds; k++ {
		if err := all.Step(); err != nil {
			t.Fatal(err)
		}
		if err := one.Step(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < all.Lanes(); r++ {
			if err := all.CaptureLaneRecord(r, got); err != nil {
				t.Fatal(err)
			}
			if err := one.CaptureLaneRecord(r, want); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d lane %d: the refilled gang and its lane-by-lane twin diverge", k, r)
			}
			for j := 1; j <= 4; j++ {
				if all.Proto(2).LanePenalty(r, j) > cfg.PR.PenaltyThreshold {
					isolations++
				}
			}
		}
	}
	if isolations == 0 {
		t.Fatal("no isolation after the refill; the fault pattern exercises too little")
	}
}

// TestRestoreLanesClearsHealthyHint restores a lane of a faulted gang, in
// which some senders' last wire words accuse, into a gang whose rows are
// all-Healthy: the healthy rows the next shared round starts with must
// lose exactly those senders, or its jobs would take the quiet-round
// shortcut over rows that accuse.
func TestRestoreLanesClearsHealthyHint(t *testing.T) {
	const rounds = 9
	quiet, err := NewBatchDiagCluster(ClusterConfig{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rounds; k++ {
		if err := quiet.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if quiet.healthyRows != 0b1111 {
		t.Fatalf("fault-free gang has healthy rows %#b, want every sender", quiet.healthyRows)
	}
	src, _ := faultedGang(t, ClusterConfig{N: 4}, 0xace, rounds)
	rows := src.rows[src.round&1]
	lane, accusing := -1, uint64(0)
	for r := 0; r < src.Lanes() && accusing == 0; r++ {
		lane = r
		for j := 1; j <= 4; j++ {
			if core.LaneView(rows[j].Op, r, 4) != 0b1111 {
				accusing |= 1 << uint(j-1)
			}
		}
	}
	if accusing == 0 {
		t.Fatal("no lane of the faulted gang holds an accusing wire word")
	}
	rec := make([]uint64, src.LaneRecordLen())
	if err := src.CaptureLaneRecord(lane, rec); err != nil {
		t.Fatal(err)
	}
	if err := quiet.RestoreLanes(1<<6, [][]uint64{rec}); err != nil {
		t.Fatal(err)
	}
	if got, want := quiet.healthyRows, 0b1111&^accusing; got != want {
		t.Fatalf("healthy rows %#b after restoring a lane whose senders %#b accuse, want %#b", got, accusing, want)
	}
	// Under ttdiag_invariants every job of the next round checks the rows
	// its shared round marks healthy.
	if err := quiet.Step(); err != nil {
		t.Fatal(err)
	}
}
