package core

import (
	"strings"
	"testing"

	"ttdiag/internal/rng"
)

// TestSnapshotRestoreMidRun is the checkpointing property: a protocol
// snapshotted mid-run and restored must produce bit-identical outputs to the
// uninterrupted original for every subsequent round, under a random fault
// pattern.
func TestSnapshotRestoreMidRun(t *testing.T) {
	st := rng.NewStream(31)
	mkInput := func(round int) RoundInput {
		in := RoundInput{
			Round:    round,
			DMs:      make([]Syndrome, 5),
			Validity: NewSyndrome(4, Healthy),
		}
		for j := 1; j <= 4; j++ {
			if st.Bool(0.2) {
				in.Validity[j] = Faulty
				continue
			}
			s := NewSyndrome(4, Healthy)
			for m := 1; m <= 4; m++ {
				if st.Bool(0.15) {
					s[m] = Faulty
				}
			}
			in.DMs[j] = s
		}
		return in
	}
	// Two input tapes must be identical: record them.
	const rounds = 24
	tape := make([]RoundInput, rounds)
	for k := range tape {
		tape[k] = mkInput(k)
	}

	cfg := Config{
		N: 4, ID: 2, L: 0, SendCurrRound: true, Mode: ModeMembership,
		PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6},
	}
	original, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var restored *Protocol
	const checkpointAt = 10
	for k := 0; k < rounds; k++ {
		outO, err := original.Step(tape[k])
		if err != nil {
			t.Fatal(err)
		}
		if k == checkpointAt {
			data, err := original.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err = RestoreProtocol(data)
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		if k > checkpointAt {
			outR, err := restored.Step(tape[k])
			if err != nil {
				t.Fatal(err)
			}
			if !outR.SendSyndrome.Equal(outO.SendSyndrome) {
				t.Fatalf("round %d: send %v != %v", k, outR.SendSyndrome, outO.SendSyndrome)
			}
			if (outR.ConsHV == nil) != (outO.ConsHV == nil) {
				t.Fatalf("round %d: warm-up divergence", k)
			}
			if outR.ConsHV != nil && !outR.ConsHV.Equal(outO.ConsHV) {
				t.Fatalf("round %d: cons_hv %v != %v", k, outR.ConsHV, outO.ConsHV)
			}
			for j := 1; j <= 4; j++ {
				if restored.PenaltyReward().Penalty(j) != original.PenaltyReward().Penalty(j) {
					t.Fatalf("round %d: penalty(%d) diverged", k, j)
				}
				if restored.PenaltyReward().IsActive(j) != original.PenaltyReward().IsActive(j) {
					t.Fatalf("round %d: activity(%d) diverged", k, j)
				}
			}
		}
	}
	// The checkpoint happened after Step(checkpointAt): the restored
	// instance must reject a replay of an old round.
	if _, err := restored.Step(tape[0]); err == nil {
		t.Fatal("restored protocol accepted an out-of-sequence round")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreProtocol([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := RestoreProtocol([]byte(`{"config":{"N":1}}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Valid config but truncated state vectors.
	p, err := NewProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Syndromes marshal as base64 byte strings: "AgEBAQE=" is [ε,1,1,1,1],
	// "AgEB" decodes to only three entries. A checkpoint whose round cursor
	// is missing or negative must be rejected too — resuming from round zero
	// would silently replay rounds the cluster already executed. Accusation
	// counters beyond accusationTTL = 2 and ages beyond accusationSkew+1 = 5
	// (or negative) fit no kernel register and no run produces them; entry 0
	// is unused and must keep its fresh value.
	for _, tt := range []struct{ from, to string }{
		{`"prevLS":"AgEBAQE="`, `"prevLS":"AgEB"`},
		{`"accuse":[0,0,0,0,0]`, `"accuse":[0]`},
		{`"penalties":[0,0,0,0,0]`, `"penalties":[0,0]`},
		{`"steps":0,`, ``},
		{`"steps":0,`, `"steps":-3,`},
		{`"steps":0,`, `"steps":null,`},
		{`"accuse":[0,0,0,0,0]`, `"accuse":[0,0,3,0,0]`},
		{`"accuse":[0,0,0,0,0]`, `"accuse":[0,-1,0,0,0]`},
		{`"accuse":[0,0,0,0,0]`, `"accuse":[1,0,0,0,0]`},
		{`"accusedAge":[5,5,5,5,5]`, `"accusedAge":[5,5,5,6,5]`},
		{`"accusedAge":[5,5,5,5,5]`, `"accusedAge":[5,-1,5,5,5]`},
		{`"accusedAge":[5,5,5,5,5]`, `"accusedAge":[0,5,5,5,5]`},
	} {
		corrupted := strings.Replace(string(data), tt.from, tt.to, 1)
		if corrupted == string(data) {
			t.Fatalf("corruption %q did not apply; snapshot = %s", tt.from, data)
		}
		if _, err := RestoreProtocol([]byte(corrupted)); err == nil {
			t.Fatalf("corrupted snapshot (%s) accepted", tt.to)
		}
	}
	// Sanity: the untouched snapshot restores.
	if _, err := RestoreProtocol(data); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTripFresh(t *testing.T) {
	cfg := Config{
		N: 4, ID: 3, L: 3, SendCurrRound: false,
		PR: PRConfig{PenaltyThreshold: 5, RewardThreshold: 5},
	}
	p, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := RestoreProtocol(data)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Config()
	if got.N != cfg.N || got.ID != cfg.ID || got.L != cfg.L ||
		got.SendCurrRound != cfg.SendCurrRound ||
		got.PR.PenaltyThreshold != cfg.PR.PenaltyThreshold {
		t.Fatalf("config mismatch: %+v", got)
	}
	in := RoundInput{Round: 0, DMs: make([]Syndrome, 5), Validity: NewSyndrome(4, Healthy)}
	if _, err := q.Step(in); err != nil {
		t.Fatal(err)
	}
}
