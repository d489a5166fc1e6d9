package sim

import (
	"bytes"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
)

func checkpointTestCluster(t *testing.T) *DiagCluster {
	t.Helper()
	cl, err := NewReusableDiagnosticCluster(ClusterConfig{
		N:  4,
		PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// clusterFingerprint serialises everything the checkpoint must preserve:
// every node's protocol snapshot, controller state, and the engine's
// ground-truth record up to the current round.
func clusterFingerprint(t *testing.T, c *DiagCluster) []byte {
	t.Helper()
	var buf bytes.Buffer
	for id := 1; id <= c.cfg.N; id++ {
		snap, err := c.Runners[id].Protocol().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(snap)
		ctrl := c.Eng.Controller(tdmaID(id))
		for j := 1; j <= c.cfg.N; j++ {
			v, ok := ctrl.ReadValue(tdmaID(j))
			buf.WriteByte(map[bool]byte{true: 1, false: 0}[ok])
			buf.WriteByte(map[bool]byte{true: 1, false: 0}[ctrl.Ignored(tdmaID(j))])
			buf.Write(v)
			buf.WriteByte(0xFF)
		}
		buf.Write(ctrl.Outbox())
	}
	for round := 0; round < c.Eng.Round(); round++ {
		for _, cls := range c.Eng.Truth(round) {
			buf.WriteByte(byte(cls))
		}
	}
	return buf.Bytes()
}

// TestClusterCheckpointRewind is the continuation property: a disturbed run
// captured mid-way, run to completion, rewound, and re-run must retrace the
// exact same trajectory — same per-round outputs, same final state, same
// ground truth — including the positions of attached rng streams.
func TestClusterCheckpointRewind(t *testing.T) {
	const captureAt, horizon = 10, 24
	cl := checkpointTestCluster(t)
	cl.Reset()
	// A stateless disturbance (pure function of the round) keeps the replay
	// honest: the same rounds see the same faults on both passes.
	cl.Eng.Bus().AddDisturbance(fault.EveryKthRound(2, 3, 2, 20))

	src := rng.NewSource(55)
	scenario := src.Stream("scenario")
	ck, err := NewClusterCheckpoint(cl)
	if err != nil {
		t.Fatal(err)
	}
	ck.AttachStream(scenario)

	type roundRecord struct {
		sends  [5]core.BitSyndrome
		draws  uint64
		active [5]uint64
	}
	record := func() roundRecord {
		var rec roundRecord
		for id := 1; id <= cl.cfg.N; id++ {
			out := cl.Runners[id].Last()
			rec.sends[id] = out.Send
			rec.active[id] = out.Active
		}
		rec.draws = scenario.Uint64() // scenario randomness rides along
		return rec
	}

	var firstPass []roundRecord
	for round := 0; round < horizon; round++ {
		if round == captureAt {
			if err := ck.Capture(cl); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
		if round >= captureAt {
			firstPass = append(firstPass, record())
		}
	}
	finalWant := clusterFingerprint(t, cl)

	if err := ck.Restore(cl); err != nil {
		t.Fatal(err)
	}
	if got := cl.Eng.Round(); got != captureAt {
		t.Fatalf("restored round = %d, want %d", got, captureAt)
	}
	for i, want := range firstPass {
		if err := cl.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
		if got := record(); got != want {
			t.Fatalf("replayed round %d diverged:\n got %+v\nwant %+v", captureAt+i, got, want)
		}
	}
	if got := clusterFingerprint(t, cl); !bytes.Equal(got, finalWant) {
		t.Fatal("replayed run reached a different final state")
	}
}

// TestClusterCheckpointCrossCluster checks that a checkpoint captured from
// one cluster restores into a different (same-shape) cluster instance — the
// splitting workers restore shared entry checkpoints into their own private
// clusters.
func TestClusterCheckpointCrossCluster(t *testing.T) {
	const captureAt, horizon = 8, 20
	a := checkpointTestCluster(t)
	b := checkpointTestCluster(t)
	a.Reset()
	b.Reset()
	dist := fault.EveryKthRound(3, 2, 1, 15)
	a.Eng.Bus().AddDisturbance(dist)
	b.Eng.Bus().AddDisturbance(dist)

	ck, err := NewClusterCheckpoint(a)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < horizon; round++ {
		if round == captureAt {
			if err := ck.Capture(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Restore(b); err != nil {
		t.Fatal(err)
	}
	for round := captureAt; round < horizon; round++ {
		if err := b.Eng.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := clusterFingerprint(t, b), clusterFingerprint(t, a); !bytes.Equal(got, want) {
		t.Fatal("cross-cluster restore diverged from the original run")
	}
}
