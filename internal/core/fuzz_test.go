package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ttdiag/internal/rng"
	"ttdiag/internal/trace"
)

// FuzzDecodeSyndrome checks that decoding never panics and that every
// successfully decoded syndrome re-encodes to the same bytes (the wire
// format is canonical).
func FuzzDecodeSyndrome(f *testing.F) {
	f.Add([]byte{0xff}, 4)
	f.Add([]byte{0x00, 0x01}, 9)
	f.Add([]byte{}, 2)
	f.Add([]byte{0xaa, 0x55, 0x0f}, 20)
	f.Fuzz(func(t *testing.T, data []byte, nRaw int) {
		n := nRaw%128 + 1
		if n < 0 {
			n = -n
		}
		s, err := DecodeSyndrome(data, n)
		if err != nil {
			return
		}
		if s.N() != n {
			t.Fatalf("decoded syndrome covers %d nodes, want %d", s.N(), n)
		}
		re := s.Encode()
		// Canonical form: trailing padding bits beyond n must be zero in
		// the re-encoding; the original may have had garbage there, so
		// compare only the meaningful bits by re-decoding.
		s2, err := DecodeSyndrome(re, n)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if !s.Equal(s2) {
			t.Fatalf("decode/encode/decode not stable: %v vs %v", s, s2)
		}
		if !bytes.Equal(re, s2.Encode()) {
			t.Fatalf("encoding not canonical after first round trip")
		}
	})
}

// FuzzHMaj checks the voting invariants over arbitrary vote vectors: no
// panic, a decision iff any vote is non-ε, Faulty only on strict majority.
func FuzzHMaj(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{})
	f.Add([]byte{2, 2, 2, 2})
	f.Add([]byte{0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		votes := make([]Opinion, len(raw))
		var faulty, healthy int
		for i, b := range raw {
			votes[i] = Opinion(b % 3)
			switch votes[i] {
			case Faulty:
				faulty++
			case Healthy:
				healthy++
			}
		}
		v, ok := HMaj(votes)
		if ok != (faulty+healthy > 0) {
			t.Fatalf("decided=%v with %d non-erased votes", ok, faulty+healthy)
		}
		if !ok {
			return
		}
		if v == Faulty && faulty <= healthy {
			t.Fatalf("convicted without strict majority: %d vs %d", faulty, healthy)
		}
		if v == Healthy && faulty > healthy {
			t.Fatalf("acquitted against strict majority: %d vs %d", faulty, healthy)
		}
	})
}

// FuzzProtocolStep drives the protocol and the byte-per-entry reference in
// lock-step with arbitrary (but well-formed) inputs derived from fuzz data.
// The fuzz input also picks the mode, the system size (2..MaxPackedN), the
// node and its schedule position. Neither side may panic, the kernel must
// never reject a well-formed input, its health vectors must be fully decided
// after warm-up, and every output must match the reference's.
func FuzzProtocolStep(f *testing.F) {
	f.Add([]byte{0x00, 0xff, 0x13, 0x37}, uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}, uint8(3), uint8(1), uint8(2), uint8(1))
	f.Add([]byte{0x81, 0x42, 0x24, 0x18, 0xff, 0x00, 0x7e}, uint8(5), uint8(1), uint8(5), uint8(2))
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55}, uint8(30), uint8(2), uint8(62), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, lRaw, modeRaw, nRaw, idRaw uint8) {
		n := 2 + int(nRaw)%(MaxPackedN-1)
		id := 1 + int(idRaw)%n
		l := int(lRaw) % n
		cfg := Config{
			N: n, ID: id, L: l, SendCurrRound: l < id,
			PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 3},
		}
		switch modeRaw % 3 {
		case 0:
			cfg.Mode = ModeDiagnostic
		case 1:
			cfg.Mode = ModeMembership
		default:
			cfg.Mode, cfg.Dynamic, cfg.SendCurrRound = ModeDiagnostic, true, true
		}
		p, err := NewProtocol(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rec trace.Recorder
		p.SetTrace(NewStepTrace(&rec))
		ref := newRefProtocol(t, cfg)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		for round := 0; round < 12; round++ {
			in := RoundInput{
				Round:    round,
				DMs:      make([]Syndrome, n+1),
				Validity: NewSyndrome(n, Healthy),
				Collision: func(r int) Opinion {
					return Opinion(r & 1)
				},
			}
			for j := 1; j <= n; j++ {
				b := next()
				if b&0x80 != 0 {
					in.Validity[j] = Faulty
					continue
				}
				s := NewSyndrome(n, Healthy)
				for m := 1; m <= n; m++ {
					if b&(1<<uint((m+j)%7)) != 0 {
						s[m] = Faulty
					}
				}
				in.DMs[j] = s
			}
			rec.Reset()
			out, err := p.Step(in)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if round >= cfg.Lag() && out.ConsHV == nil {
				t.Fatalf("round %d: no health vector after warm-up", round)
			}
			if out.ConsHV != nil {
				for j := 1; j <= n; j++ {
					if out.ConsHV[j] != Faulty && out.ConsHV[j] != Healthy {
						t.Fatalf("round %d: undecided entry %d", round, j)
					}
				}
			}
			accusations := append([]trace.Event{}, rec.Filter(trace.KindAccusation)...)
			diffAgainstReference(t, fmt.Sprintf("round %d", round), out, accusations, ref.Step(in))
		}
	})
}

// wideSnapshot is the snapshot of a freshly built n-node protocol in the
// byte-per-entry wire form, for sizes NewProtocol refuses to build.
func wideSnapshot(t testing.TB, n int) []byte {
	t.Helper()
	snap := protocolSnapshot{
		Config: Config{N: n, ID: 1, L: 0, SendCurrRound: true, Mode: ModeDiagnostic,
			PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}},
		PrevDM:     make(map[int]Syndrome),
		PrevLS:     NewSyndrome(n, Healthy),
		PrevAlLS:   NewSyndrome(n, Healthy),
		LastSent:   NewSyndrome(n, Healthy),
		PrevSent:   NewSyndrome(n, Healthy),
		Accuse:     make([]int, n+1),
		AccusedAge: make([]int, n+1),
		PR: prSnapshot{
			Penalties: make([]int64, n+1),
			Rewards:   make([]int64, n+1),
			Active:    make([]bool, n+1),
			Observe:   make([]int64, n+1),
		},
	}
	for j := 1; j <= n; j++ {
		snap.PrevDM[j] = NewSyndrome(n, Healthy)
		snap.AccusedAge[j] = accusationSkew + 1
		snap.PR.Active[j] = true
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzRestoreProtocol feeds arbitrary bytes to RestoreProtocol. It must never
// panic, must refuse systems beyond MaxPackedN, and every snapshot it accepts
// must restore losslessly — the restored protocol re-snapshots to exactly the
// bytes the snapshot's own fields marshal to — and run 8 Steps without error.
// The corpus is seeded with real snapshots (fresh, mid-run membership,
// dynamic), one carrying a prevDM key outside 1..N, one holding a value that
// is no opinion, two whose accusation counter or age lies outside the range
// the kernel's registers hold, and one of a 65-node system.
func FuzzRestoreProtocol(f *testing.F) {
	for _, tc := range stepEquivCases()[3:6] { // the N = 4 cases
		p, err := NewProtocol(tc.cfg)
		if err != nil {
			f.Fatal(err)
		}
		st := rng.NewStream(int64(tc.cfg.N))
		for r := 0; r < 9; r++ {
			data, err := p.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			if r%4 == 0 {
				f.Add(data)
			}
			if _, err := p.Step(randomStepInput(st, tc.cfg.N, tc.cfg.StartRound+r)); err != nil {
				f.Fatal(err)
			}
		}
	}
	var stray protocolSnapshot
	p, err := NewProtocol(stepEquivCases()[4].cfg)
	if err != nil {
		f.Fatal(err)
	}
	data, err := p.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if err := json.Unmarshal(data, &stray); err != nil {
		f.Fatal(err)
	}
	stray.PrevDM[99] = NewSyndrome(4, Faulty)
	if data, err = json.Marshal(stray); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	delete(stray.PrevDM, 99)
	stray.PrevLS[2] = 7 // no such opinion
	if data, err = json.Marshal(stray); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	stray.PrevLS[2] = Healthy
	stray.Accuse[3] = accusationTTL + 1
	if data, err = json.Marshal(stray); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	stray.Accuse[3] = 0
	stray.AccusedAge[1] = accusationSkew + 2
	if data, err = json.Marshal(stray); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(wideSnapshot(f, MaxPackedN+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := RestoreProtocol(data)
		var snap protocolSnapshot
		if json.Unmarshal(data, &snap) == nil && snap.Config.N > MaxPackedN && err == nil {
			t.Fatalf("restored a %d-node protocol", snap.Config.N)
		}
		if err != nil {
			return
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore is lossy:\n  snapshot %s\nre-snapshot %s", want, got)
		}
		cfg := p.Config()
		in := RoundInput{DMs: make([]Syndrome, cfg.N+1), Validity: NewSyndrome(cfg.N, Healthy)}
		for j := 1; j <= cfg.N; j++ {
			in.DMs[j] = NewSyndrome(cfg.N, Healthy)
		}
		for k := 0; k < 8; k++ {
			in.Round = cfg.StartRound + snap.Steps + k
			if _, err := p.Step(in); err != nil {
				t.Fatalf("step %d after restore: %v", k, err)
			}
		}
	})
}
