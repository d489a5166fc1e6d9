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
	// Drop node 3 from both the activity vector and its mask, so the
	// corruption is self-consistent and only monotonicity can catch it.
	p.b.pr.active[3] = false
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

// TestFalseHealthyRowsHintPanics marks a row healthy that is Faulty in one
// lane: the kernel would skip installing a matrix that is not quiet, so the
// invariant layer must reject the hint before it is used.
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
	for k := 0; k < 4; k++ {
		in := BatchRoundInput{Round: k, Rows: rows, Present: p.allB, Validity: rows[1], HealthyRows: hint}
		if _, err := p.StepBatch(in); err != nil {
			t.Fatal(err)
		}
	}
	rows[3].Op &^= 1 << (4 + 1) // lane 1: row 3 accuses node 2
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("false HealthyRows bit was not caught")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "HealthyRows marks row 3") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	in := BatchRoundInput{Round: 4, Rows: rows, Present: p.allB, Validity: rows[1], HealthyRows: hint}
	if _, err := p.StepBatch(in); err != nil {
		t.Fatal(err)
	}
}
