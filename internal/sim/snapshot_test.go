package sim

import (
	"fmt"
	"reflect"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// TestProtoFillsBorrowedRows steps a faulted gang whose jobs borrow the
// cluster's round snapshots next to a per-run cluster under lane 3's
// faults. A job's protocol holds no rows of its own after its step, so a
// read of its state fails until Proto fills them; through Proto every
// node's state must equal its per-run twin's, right after the node's job
// inside the round and again between rounds.
func TestProtoFillsBorrowedRows(t *testing.T) {
	const lane, seed, rounds = 3, 0x5eed, 30
	cfg := ClusterConfig{N: 4, Ls: []int{2, 0, 3, 1}, PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 5}}
	bc, _ := faultedGang(t, cfg, seed-lane, 0)
	q, err := NewReusableDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q.Reset()
	q.Eng.Bus().AddDisturbance((&laneFaults{seed: seed}).predicate())

	var got, want [5]map[string]any
	bc.OnOutput = func(id int, _ *core.BatchRoundOutput) {
		if _, err := bc.protos[id].SnapshotLane(lane); err == nil {
			t.Errorf("round %d node %d: the state of a job that borrowed its rows was read without filling them", bc.Round(), id)
		}
		s, err := bc.Proto(id).SnapshotLane(lane)
		got[id] = snapshotSansSteps(t, s, err)
	}
	for id := 1; id <= 4; id++ {
		id, p := id, q.Runners[id].Protocol()
		q.Runners[id].OnOutput = func(core.RoundOutput) {
			s, err := p.Snapshot()
			want[id] = snapshotSansSteps(t, s, err)
		}
	}
	for k := 0; k < rounds; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
		if err := q.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 4; id++ {
			if !reflect.DeepEqual(got[id], want[id]) {
				t.Fatalf("round %d node %d after its job: filled state\n got %v\nwant %v", k, id, got[id], want[id])
			}
			s, err := bc.Proto(id).SnapshotLane(lane)
			between := snapshotSansSteps(t, s, err)
			s, err = q.Runners[id].Protocol().Snapshot()
			if w := snapshotSansSteps(t, s, err); !reflect.DeepEqual(between, w) {
				t.Fatalf("round %d node %d between rounds: filled state\n got %v\nwant %v", k, id, between, w)
			}
		}
	}
}

// TestSparseInstallMatchesWholeMatrix runs two gangs of a wide faulted
// cluster — malicious senders, an SOS episode and a sender that fails
// every other round until isolated, as in scale-resilience — one as
// campaigns run it and one with telemetry on every lane, which makes every
// job install its whole matrix. Job for job their outputs must be
// identical: the sparse install and the tally correction change nothing a
// job returns.
func TestSparseInstallMatchesWholeMatrix(t *testing.T) {
	const n, rounds = 16, 40
	cfg := ClusterConfig{N: n, PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6}}
	build := func(whole bool) (*BatchDiagCluster, *[]core.BatchRoundOutput) {
		bc, err := NewBatchDiagCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewSource(33)
		for lane := 0; lane < bc.Lanes(); lane++ {
			for s := 1; s <= 2; s++ {
				bc.AddLaneDisturbance(lane, fault.NewMaliciousSyndrome(tdma.NodeID(s+lane), src.Stream(fmt.Sprintf("mal-%d-%d", lane, s))))
			}
			var bursts []fault.Burst
			for r := 6 + lane; r < 20; r += 2 {
				bursts = append(bursts, fault.SlotBurst(bc.Schedule(), r, 5+lane, 1))
			}
			bc.AddLaneDisturbance(lane, fault.NewTrain(bursts...))
			bc.AddLaneDisturbance(lane, fault.SOS{Sender: tdma.NodeID(9 + lane), Victims: []tdma.NodeID{1, 2, 3}, FromRound: 10, ToRound: 12})
			bc.SetLaneHorizon(lane, rounds)
		}
		if whole {
			sm := core.NewStepMetrics(metrics.New())
			for id := 1; id <= n; id++ {
				for lane := 0; lane < bc.Lanes(); lane++ {
					bc.Proto(id).SetLaneMetrics(lane, sm)
				}
			}
		}
		outs := new([]core.BatchRoundOutput)
		bc.OnOutput = func(_ int, out *core.BatchRoundOutput) { *outs = append(*outs, *out) }
		return bc, outs
	}
	sparse, got := build(false)
	whole, want := build(true)
	if err := sparse.Run(); err != nil {
		t.Fatal(err)
	}
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != rounds*n || len(*want) != rounds*n {
		t.Fatalf("%d and %d job outputs, want %d", len(*got), len(*want), rounds*n)
	}
	isolated := 0
	for i, o := range *got {
		if o != (*want)[i] {
			t.Fatalf("round %d, job %d: sparse install gives %+v, the whole matrix %+v", o.Round, i%n, o, (*want)[i])
		}
		isolated += bitsSet(o.IsolatedMask)
	}
	if isolated == 0 {
		t.Fatal("no isolation: the faults exercise too little")
	}
}
