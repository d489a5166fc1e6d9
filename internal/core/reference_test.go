package core

import (
	"bytes"
	"fmt"
	"testing"

	"ttdiag/internal/rng"
	"ttdiag/internal/trace"
)

// refProtocol is the byte-per-entry reference implementation of Alg. 1 that
// the bit-plane Protocol is checked against. It deliberately shares no code
// with the kernel: its own alignment buffers, accusation and age counters and
// dissemination history, every column voted with HMaj over the opinions of
// its own rows (no Matrix, no planes), and Alg. 2 through the exported
// PenaltyReward.Update. It favours obviousness over speed and allocates
// freely.
type refProtocol struct {
	cfg   Config
	pr    *PenaltyReward
	steps int
	// prevDM/prevLS are the interface state observed in the previous round
	// (nil prevDM entry = ε), prevAl the aligned local syndrome computed in
	// it.
	prevDM []Syndrome
	prevLS Syndrome
	prevAl Syndrome
	// lastSent/prevSent are the syndromes written in the previous two rounds.
	lastSent Syndrome
	prevSent Syndrome
	// accuse[j] counts the dissemination writes still carrying a minority
	// accusation against j; accusedAge[j] the rounds since it was raised.
	accuse     []int
	accusedAge []int
}

// refOutput is the reference's byte-per-entry view of one round: the
// RoundOutput results as slices (ConsHV nil during warm-up, Wire the wire
// bytes of the outgoing syndrome Sent), the diagnostic matrix rows, and the
// evidence class of every accusation raised (true = a definite opinion
// opposite the verdict).
type refOutput struct {
	Round, DiagnosedRound           int
	Wire                            []byte
	Sent, ConsHV                    Syndrome
	Rows                            []Syndrome
	Isolated, Reintegrated, Accused []int
	Active                          []bool
	Definite                        map[int]bool
}

func newRefProtocol(t testing.TB, cfg Config) *refProtocol {
	t.Helper()
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	pr, err := NewPenaltyReward(cfg.N, cfg.PR)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.N
	r := &refProtocol{
		cfg:        cfg,
		pr:         pr,
		prevDM:     make([]Syndrome, n+1),
		prevLS:     refSyndrome(n, Healthy),
		prevAl:     refSyndrome(n, Healthy),
		lastSent:   refSyndrome(n, Healthy),
		prevSent:   refSyndrome(n, Healthy),
		accuse:     make([]int, n+1),
		accusedAge: make([]int, n+1),
	}
	for j := 1; j <= n; j++ {
		r.prevDM[j] = refSyndrome(n, Healthy)
		r.accusedAge[j] = accusationSkew + 1
	}
	return r
}

// refSyndrome is a fresh n-node syndrome filled with v (entry 0 ε).
func refSyndrome(n int, v Opinion) Syndrome {
	s := make(Syndrome, n+1)
	s[0] = Erased
	for j := 1; j <= n; j++ {
		s[j] = v
	}
	return s
}

// refNormalize copies s with every entry outside {Faulty, Healthy} read as
// ε, the documented Step input contract; nil stays nil.
func refNormalize(s Syndrome) Syndrome {
	if s == nil {
		return nil
	}
	out := make(Syndrome, len(s))
	out[0] = Erased
	for j := 1; j < len(s); j++ {
		out[j] = s[j]
		if s[j] != Faulty && s[j] != Healthy {
			out[j] = Erased
		}
	}
	return out
}

// refEncode is the wire form of s: LSB-first, Healthy = 1, ε and Faulty = 0.
func refEncode(s Syndrome) []byte {
	n := len(s) - 1
	out := make([]byte, (n+7)/8)
	for j := 1; j <= n; j++ {
		if s[j] == Healthy {
			out[(j-1)/8] |= 1 << uint((j-1)%8)
		}
	}
	return out
}

// refVote is HMaj over column j of the byte-per-entry rows (nil = ε row),
// discarding node j's opinion about itself; votes is scratch of capacity
// len(rows).
func refVote(rows []Syndrome, j int, votes []Opinion) (Opinion, bool) {
	votes = votes[:0]
	for i := 1; i < len(rows); i++ {
		if i != j && rows[i] != nil {
			votes = append(votes, rows[i][j])
		}
	}
	return HMaj(votes)
}

// guarded reports whether column m is inside the accusationSkew window.
func (r *refProtocol) guarded(m int) bool {
	return r.accusedAge[m] >= 1 && r.accusedAge[m] <= accusationSkew
}

// conflict classifies row j against the health vector over the unguarded
// columns (the diagonal, guarded columns and — once this node sees itself
// convicted — its own column are skipped): any differing entry, and any
// definite (non-ε) differing entry.
func (r *refProtocol) conflict(row, consHV Syndrome, j int) (any, definite bool) {
	for m := 1; m <= r.cfg.N; m++ {
		if m == j || r.guarded(m) || (m == r.cfg.ID && consHV[m] == Faulty) {
			continue
		}
		if row[m] != consHV[m] {
			any = true
			if row[m] != Erased {
				definite = true
			}
		}
	}
	return any, definite
}

// Step runs one round of Alg. 1 (inputs are assumed valid).
func (r *refProtocol) Step(in RoundInput) refOutput {
	n := r.cfg.N
	dms := make([]Syndrome, n+1)
	for j := 1; j <= n; j++ {
		dms[j] = refNormalize(in.DMs[j])
	}
	validity := refNormalize(in.Validity)

	// Read alignment: entries 1..l from the previous read, the rest from
	// this one (l = 0 under dynamic scheduling).
	l := r.cfg.L
	if r.cfg.Dynamic {
		l = 0
	}
	alDM := make([]Syndrome, n+1)
	alLS := refSyndrome(n, Erased)
	for j := 1; j <= n; j++ {
		if j <= l {
			alDM[j], alLS[j] = r.prevDM[j], r.prevLS[j]
		} else {
			alDM[j], alLS[j] = dms[j], validity[j]
		}
	}

	out := refOutput{Round: in.Round, DiagnosedRound: -1}
	if r.steps >= r.cfg.Lag() {
		rows := make([]Syndrome, n+1)
		copy(rows, alDM)
		rows[r.cfg.ID] = r.prevSent
		if r.cfg.SendCurrRound {
			rows[r.cfg.ID] = r.lastSent
		}
		diag := in.Round - r.cfg.Lag()
		consHV := refSyndrome(n, Erased)
		votes := make([]Opinion, 0, n)
		for j := 1; j <= n; j++ {
			v, ok := refVote(rows, j, votes)
			if !ok {
				v = Healthy
				if in.Collision != nil && in.Collision(diag) == Faulty {
					v = Faulty
				}
			}
			consHV[j] = v
		}
		out.ConsHV, out.DiagnosedRound, out.Rows = consHV, diag, rows

		if r.cfg.Mode == ModeMembership {
			out.Definite = make(map[int]bool)
			for j := 1; j <= n; j++ {
				if j == r.cfg.ID || rows[j] == nil {
					continue
				}
				if any, definite := r.conflict(rows[j], consHV, j); any {
					r.accuse[j] = accusationTTL
					out.Accused = append(out.Accused, j)
					out.Definite[j] = definite
				}
			}
			for _, j := range out.Accused {
				r.accusedAge[j] = 0
			}
			if consHV[r.cfg.ID] == Faulty {
				r.accusedAge[r.cfg.ID] = 0
			}
		}
	}

	// Send alignment.
	send := alLS
	if r.cfg.SendCurrRound && !r.cfg.AllSendCurrRound {
		send = r.prevAl
	}
	send = append(Syndrome(nil), send...)
	if r.cfg.Mode == ModeMembership {
		for j := 1; j <= n; j++ {
			if r.accuse[j] > 0 {
				send[j] = Faulty
				r.accuse[j]--
			}
		}
	}
	out.Wire, out.Sent = refEncode(send), send

	if out.ConsHV != nil {
		iso, reint, err := r.pr.Update(out.ConsHV)
		if err != nil {
			panic(err)
		}
		out.Isolated, out.Reintegrated = iso, reint
	}
	out.Active = r.pr.Active()

	r.prevDM, r.prevLS, r.prevAl = dms, validity, alLS
	r.prevSent, r.lastSent = r.lastSent, send
	for j := 1; j <= n; j++ {
		if r.accusedAge[j] <= accusationSkew {
			r.accusedAge[j]++
		}
	}
	r.steps++
	return out
}

// stepEquivCase is one protocol configuration of the kernel-vs-reference
// differential test.
type stepEquivCase struct {
	name string
	cfg  Config
}

func stepEquivCases() []stepEquivCase {
	var cases []stepEquivCase
	for _, n := range []int{2, 4, 7, 16, 33, 64} {
		id := 1 + n/2
		cases = append(cases,
			stepEquivCase{
				name: fmt.Sprintf("diag_n%d", n),
				cfg: Config{
					// L >= ID: the job runs after the node's slot.
					N: n, ID: n / 2, L: n / 2, SendCurrRound: false,
					Mode: ModeDiagnostic,
					PR:   PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
				},
			},
			stepEquivCase{
				name: fmt.Sprintf("membership_n%d", n),
				cfg: Config{
					N: n, ID: id, L: id - 1, SendCurrRound: true, AllSendCurrRound: true,
					Mode: ModeMembership, StartRound: 5,
					PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 2, ReintegrationThreshold: 4},
				},
			},
			stepEquivCase{
				name: fmt.Sprintf("dynamic_n%d", n),
				cfg: Config{
					N: n, ID: id, Dynamic: true, SendCurrRound: true,
					Mode: ModeDiagnostic,
					PR:   PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 3},
				},
			},
		)
	}
	return cases
}

// randomStepInput draws one round input; the kernel and the reference
// receive the same slices (neither mutates them).
func randomStepInput(st *rng.Stream, n, round int) RoundInput {
	in := RoundInput{
		Round:    round,
		DMs:      make([]Syndrome, n+1),
		Validity: NewSyndrome(n, Healthy),
		Collision: func(r int) Opinion {
			if r%5 == 0 {
				return Faulty
			}
			return Healthy
		},
	}
	for j := 1; j <= n; j++ {
		switch {
		case st.Bool(0.15): // ε: nothing received
			in.Validity[j] = Faulty
		case st.Bool(0.05): // stressing an out-of-spec validity entry
			in.Validity[j] = Erased
			in.DMs[j] = randomSyndrome(st, n, 0.2)
		default:
			in.DMs[j] = randomSyndrome(st, n, 0.2)
		}
	}
	return in
}

// diffAgainstReference fails unless the kernel's round output matches the
// reference's in every field, and the diagnostic matrix the kernel's
// Matrix accessor returned after the round (nil when cold) matches the
// reference's rows. Unless accusations is nil, it must hold the round's
// accusation events from the kernel's flight recorder, whose evidence
// classes must match the reference's.
func diffAgainstReference(t testing.TB, tag string, got RoundOutput, matrix *Matrix, accusations []trace.Event, want refOutput) {
	t.Helper()
	fail := func(field string, gv, wv interface{}) {
		t.Fatalf("%s: %s diverged: kernel %v, reference %v", tag, field, gv, wv)
	}
	n := want.Sent.N()
	if got.Round != want.Round {
		fail("Round", got.Round, want.Round)
	}
	if got.DiagnosedRound != want.DiagnosedRound {
		fail("DiagnosedRound", got.DiagnosedRound, want.DiagnosedRound)
	}
	wire := make([]byte, EncodedLen(n))
	got.Send.EncodeInto(wire)
	if !bytes.Equal(wire, want.Wire) {
		fail("Send wire bytes", wire, want.Wire)
	}
	if s := got.Send.Unpack(n); !s.Equal(want.Sent) {
		fail("Send", s, want.Sent)
	}
	if (got.ConsHV.Known == 0) != (want.ConsHV == nil) {
		fail("ConsHV presence", got.ConsHV.Known != 0, want.ConsHV != nil)
	}
	for j := 0; j <= MaxPackedN; j++ {
		wantBit := Erased
		if want.ConsHV != nil && j >= 1 && j <= n {
			wantBit = want.ConsHV[j]
		}
		if got.ConsHV.Get(j) != wantBit {
			fail(fmt.Sprintf("ConsHV entry %d", j), got.ConsHV.Get(j), wantBit)
		}
	}
	if (matrix == nil) != (want.Rows == nil) {
		fail("Matrix presence", matrix != nil, want.Rows != nil)
	}
	for j := 1; matrix != nil && j <= n; j++ {
		if row := matrix.Row(j); (row == nil) != (want.Rows[j] == nil) || (row != nil && !row.Equal(want.Rows[j])) {
			fail(fmt.Sprintf("Matrix row %d", j), row, want.Rows[j])
		}
	}
	if w := intsToMask(want.Isolated); got.Isolated != w {
		fail("Isolated", got.Isolated, w)
	}
	if w := intsToMask(want.Reintegrated); got.Reintegrated != w {
		fail("Reintegrated", got.Reintegrated, w)
	}
	if w := intsToMask(want.Accused); got.Accused != w {
		fail("Accused", got.Accused, w)
	}
	var wantMask uint64
	for j := 1; j < len(want.Active); j++ {
		if want.Active[j] {
			wantMask |= 1 << uint(j-1)
		}
	}
	if got.Active != wantMask {
		fail("Active", got.Active, wantMask)
	}
	if accusations == nil {
		return
	}
	if len(accusations) != len(want.Accused) {
		fail("accusation events", accusations, want.Accused)
	}
	for i, e := range accusations {
		wantEv := trace.EvidenceMatrix
		if want.Definite[want.Accused[i]] {
			wantEv = trace.EvidenceVerdict
		}
		if e.Subject != want.Accused[i] || e.Evidence != wantEv {
			fail(fmt.Sprintf("accusation %d evidence", i), e, fmt.Sprintf("subject %d, %s", want.Accused[i], wantEv))
		}
	}
}

// TestPackedScalarStepEquivalence runs the bit-plane Protocol and the
// byte-per-entry (scalar) reference side by side on identical random inputs —
// ε rows, erased entries, asymmetric malicious opinions, accusation
// cascades, isolations and reintegrations — and requires every RoundOutput
// field and the diagnostic matrix rows to agree on every round. A protocol
// restored from a mid-run snapshot must continue to match.
func TestPackedScalarStepEquivalence(t *testing.T) {
	for _, tc := range stepEquivCases() {
		t.Run(tc.name, func(t *testing.T) { runAgainstReference(t, tc.cfg, false) })
	}
}

// TestPackedScalarTraceEquivalence attaches a flight recorder to the
// bit-plane Protocol and requires, beside the round outputs, that every
// accusation event names the reference's suspect in the reference's order
// and carries its evidence class: a definite HMaj verdict or a matrix
// disagreement that only ε entries support.
func TestPackedScalarTraceEquivalence(t *testing.T) {
	for _, tc := range stepEquivCases() {
		t.Run(tc.name, func(t *testing.T) { runAgainstReference(t, tc.cfg, true) })
	}
}

// runAgainstReference steps the kernel and refProtocol in lock-step for 48
// rounds. With traced set it compares the kernel's accusation events with
// the reference's suspects; otherwise it also checks a twin restored from a
// mid-run snapshot.
func runAgainstReference(t *testing.T, cfg Config, traced bool) {
	t.Helper()
	const rounds = 48
	kernel, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if traced {
		kernel.SetTrace(NewStepTrace(&rec))
	}
	ref := newRefProtocol(t, cfg)
	st := rng.NewStream(int64(1000 + cfg.N + int(cfg.Mode)*7))
	var restored *Protocol
	accused := 0
	for r := 0; r < rounds; r++ {
		round := cfg.StartRound + r
		in := randomStepInput(st, cfg.N, round)
		rec.Reset()
		got, err := kernel.Step(in)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := ref.Step(in)
		var accusations []trace.Event
		if traced {
			accusations = append([]trace.Event{}, rec.Filter(trace.KindAccusation)...)
		}
		diffAgainstReference(t, fmt.Sprintf("round %d", round), got, kernel.Matrix(), accusations, want)
		accused += len(want.Accused)
		if traced {
			continue
		}
		if restored != nil {
			rOut, err := restored.Step(in)
			if err != nil {
				t.Fatalf("round %d: restored: %v", round, err)
			}
			diffAgainstReference(t, fmt.Sprintf("round %d (restored)", round), rOut, restored.Matrix(), nil, want)
		}
		if r == rounds/2 {
			snap, err := kernel.Snapshot()
			if err != nil {
				t.Fatalf("round %d: snapshot: %v", round, err)
			}
			if restored, err = RestoreProtocol(snap); err != nil {
				t.Fatalf("round %d: restore: %v", round, err)
			}
		}
	}
	if traced && cfg.Mode == ModeMembership && accused == 0 {
		t.Fatalf("membership case raised no accusations — the evidence check is vacuous")
	}
}
