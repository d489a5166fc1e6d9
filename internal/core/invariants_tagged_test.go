//go:build ttdiag_invariants

package core

import (
	"strings"
	"testing"
)

func stepOnce(t *testing.T, p *Protocol, round int) {
	t.Helper()
	n := p.Config().N
	in := RoundInput{
		Round:    round,
		DMs:      make([]Syndrome, n+1),
		Validity: NewSyndrome(n, Healthy),
	}
	for j := 1; j <= n; j++ {
		in.DMs[j] = NewSyndrome(n, Healthy)
	}
	if _, err := p.Step(in); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedPenaltyCounterPanics corrupts Alg. 2 state behind the
// protocol's back and requires the kernel's invariant layer to catch it at
// the next round boundary.
func TestCorruptedPenaltyCounterPanics(t *testing.T) {
	p, err := NewProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.b.pr.penalties[2] = -1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("negative penalty counter was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "penalty counter") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	stepOnce(t, p, 0)
}

// TestCorruptedActivityBitPanics flips an activity bit back on without the
// reintegration extension — the monotonicity the isolation guarantee of
// Alg. 2 depends on.
func TestCorruptedActivityBitPanics(t *testing.T) {
	p, err := NewProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, p, 0) // seed invPrevActive
	// Drop node 3 from the activity mask, so only monotonicity can catch
	// it.
	p.b.pr.activeMask &^= 1 << 2
	p.b.pr.penalties[3] = 3 // below threshold: isolation is unjustified
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unjustified isolation was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "isolated without a faulty verdict") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	stepOnce(t, p, 1)
}

// TestHealthyRunStaysQuiet drives a protocol through enough rounds to warm
// up the pipeline and asserts the invariant layer accepts a legal history.
func TestHealthyRunStaysQuiet(t *testing.T) {
	p, err := NewProtocol(Config{
		N: 4, ID: 2, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 12; k++ {
		stepOnce(t, p, k)
	}
}

// TestImplicitRewardBoundPanics checks that the reward bound is asserted
// on the effective counter of a node under attention (stored value plus
// the masked updates since its stamp), not on the stored one: a stamp moved
// back by R updates, behind the deadline the event form schedules, must be
// caught at the next round boundary.
func TestImplicitRewardBoundPanics(t *testing.T) {
	p, err := NewBatchProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		p.pr.updateMasked(0)
	}
	p.pr.updateMasked(1 << (4 + 1)) // lane 1, node 2: penalised, reward window open
	i := 1*5 + 2
	if p.pr.attention != 1<<(4+1) || p.pr.rewards[i] != 0 {
		t.Fatalf("attention %#x reward %d after one fault", p.pr.attention, p.pr.rewards[i])
	}
	rows := make([]BitSyndrome, 5)
	for j := range rows {
		rows[j] = BitSyndrome{Op: p.allB, Known: p.allB}
	}
	step := func(round int) {
		in := BatchRoundInput{Round: round, Rows: rows, Present: p.allB, Validity: rows[1]}
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 6; k++ {
		step(k)
	}
	p.pr.stamp[i] -= 8 // the stored reward is still 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("an effective reward counter past R in lane 1 was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lane 1") || !strings.Contains(msg, "reward counter of node 2") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	step(6)
}

// TestGangLaneInvariantsPanic corrupts one lane of a full-width gang and
// requires the kernel's lane-aware check to name that lane: campaign lanes,
// fleet shards and gateways run the same invariants as a per-run protocol.
func TestGangLaneInvariantsPanic(t *testing.T) {
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
	step := func(round int) {
		in := BatchRoundInput{Round: round, Rows: rows, Present: p.allB, Validity: rows[1]}
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 6; k++ {
		step(k)
	}
	p.pr.rewards[9*5+2] = 8 // lane 9, node 2: reward counter reached R
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-range reward counter in lane 9 was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lane 9") || !strings.Contains(msg, "reward counter") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	step(6)
}

// TestFalseHealthyRowsHintPanics starts a shared round that marks a row
// healthy that is Faulty in one lane: the kernel would skip installing a
// matrix that is not quiet, so the invariant layer must reject the hint
// before it is used.
func TestFalseHealthyRowsHintPanics(t *testing.T) {
	p, err := NewBatchProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]BitSyndrome, 5)
	for j := range rows {
		rows[j] = BitSyndrome{Op: p.allB, Known: p.allB}
	}
	hint := uint64(0b1111)
	sr := NewSharedRound(4)
	in := BatchRoundInput{Present: p.allB, Validity: rows[1], Shared: sr}
	for k := 0; k < 4; k++ {
		in.Round = k
		sr.Start(k, rows, hint, ^uint64(0))
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	rows[3].Op &^= 1 << (4 + 1) // lane 1: row 3 accuses node 2
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("false healthy-row bit was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "marks row 3 healthy") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	in.Round = 4
	sr.Start(4, rows, hint, ^uint64(0))
	if _, err := p.StepBatch(in); err != nil {
		t.Fatal(err)
	}
}

// TestTallyVoteMismatchPanics corrupts a shared round's tally counters
// behind its matrix: the next round's vote taken from the tally would be
// wrong, so the invariant layer's recount must catch it.
func TestTallyVoteMismatchPanics(t *testing.T) {
	p, err := NewBatchProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]BitSyndrome, 5)
	for j := range rows {
		rows[j] = BitSyndrome{Op: p.allB, Known: p.allB}
	}
	rows[3].Op &^= 1 << (4 + 1) // lane 1: row 3 accuses node 2, a loud matrix
	sr := NewSharedRound(4)
	in := BatchRoundInput{Present: p.allB, Validity: rows[1], Shared: sr}
	for k := 0; k < 4; k++ {
		in.Round = k
		sr.Start(k, rows, 0, ^uint64(0))
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	if sr.laneRep != p.laneRep {
		t.Fatal("no warm step recorded its vote in the tally")
	}
	sr.faulty[0] ^= 1 << (4 + 1) // lane 1, column 2: one faulty vote more or less
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted tally was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "tallied vote disagrees with the full vote") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	in.Round = 4
	sr.Start(4, rows, 0, ^uint64(0))
	if _, err := p.StepBatch(in); err != nil {
		t.Fatal(err)
	}
}

// TestSparseInstallMismatchPanics hands the second observer of a round
// other rows than the ones its tally was recorded from: the row that
// changed lies outside the rows the tally's stamp leaves as candidates, so
// the sparse install misses it, and the invariant layer's full install
// must catch it.
func TestSparseInstallMismatchPanics(t *testing.T) {
	snap := make([]BitSyndrome, 5)
	for j := range snap {
		snap[j] = BitSyndrome{Op: ^uint64(0), Known: ^uint64(0)}
	}
	snap[3].Op &^= 1 << (4 + 1) // lane 1: row 3 accuses node 2, a loud matrix
	healthy := BitSyndrome{Op: ^uint64(0), Known: ^uint64(0)}
	a := snapshotObserver(t, 4, 2, 1, 0, ^uint64(0), healthy, snap)
	b := snapshotObserver(t, 4, 2, 2, 1, ^uint64(0), healthy, snap)
	sr := NewSharedRound(4)
	sr.Start(a.lag, snap, 0, ^uint64(0))
	in := BatchRoundInput{Round: a.lag, Present: a.allB, Validity: healthy, Shared: sr}
	if _, err := a.StepBatch(in); err != nil {
		t.Fatal(err)
	}
	if !sr.current() || sr.owner != 1 {
		t.Fatal("the first observer did not become the round's owner")
	}
	other := append([]BitSyndrome(nil), snap...)
	other[4].Op &^= 1 // lane 0: row 4 accuses node 1 in the second observer's rows only
	sr.rows = other
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a sparse install against another snapshot's tally was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "sparse install of rows 0x3 missed rows 0x8") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	if _, err := b.StepBatch(in); err != nil {
		t.Fatal(err)
	}
}

// laneGang is a full-width N=4 gang of node 1 without reintegration, and a
// closure stepping it one quiet round.
func laneGang(t *testing.T) (*BatchProtocol, func(round int)) {
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
	return p, func(round int) {
		t.Helper()
		in := BatchRoundInput{Round: round, Rows: rows, Present: p.allB, Validity: rows[1]}
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreLaneRebaselinesActivity restores an all-active lane over a
// lane where node 3 is isolated, which brings node 3 back without the
// reintegration extension: the activity history re-baselines for that lane
// only, so the next step accepts it, and an unjustified isolation in
// another lane right after the restore is still caught.
func TestRestoreLaneRebaselinesActivity(t *testing.T) {
	p, step := laneGang(t)
	for k := 0; k < 4; k++ {
		step(k)
	}
	st := make([]uint64, LaneRecordLen(4))
	if err := p.CaptureLane(0, st); err != nil {
		t.Fatal(err)
	}
	// Lane 7, node 3: a legitimate isolation (penalty past the threshold).
	p.pr.activeMask &^= 1 << (7*4 + 2)
	p.pr.penalties[7*5+3] = 5
	step(4)
	if err := p.RestoreLanes(1<<7, [][]uint64{st}, 0); err != nil {
		t.Fatal(err)
	}
	step(5) // node 3 is active again in lane 7: no monotonicity failure

	// Lane 2, node 4: dropped without a penalty past the threshold.
	p.pr.activeMask &^= 1 << (2*4 + 3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unjustified isolation in lane 2 after a restore was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lane 2") || !strings.Contains(msg, "isolated without a faulty verdict") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	step(6)
}

// TestRestoreLaneRecaptureMismatchPanics restores a lane record carrying
// bits beyond the lane's segment, which the restore cannot keep: the
// re-capture no longer equals the record and the invariant layer must stop.
func TestRestoreLaneRecaptureMismatchPanics(t *testing.T) {
	p, step := laneGang(t)
	step(0)
	st := make([]uint64, LaneRecordLen(4))
	if err := p.CaptureLane(3, st); err != nil {
		t.Fatal(err)
	}
	st[recAttention] = 1 << 4 // node 5 of a 4-node lane
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a restore that does not round-trip was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "restored lane 3") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = p.RestoreLanes(1<<3, [][]uint64{st}, 0)
}
