package core

import (
	"errors"
	"strings"
	"testing"

	"ttdiag/internal/rng"
)

func TestNewPackedMatrixBound(t *testing.T) {
	if _, err := NewPackedMatrix(MaxPackedN + 1); !errors.Is(err, ErrBeyondPackedBound) {
		t.Fatalf("NewPackedMatrix(%d) = %v, want the flat-bound error", MaxPackedN+1, err)
	}
	if _, err := NewPackedMatrix(MaxPackedN); err != nil {
		t.Fatalf("NewPackedMatrix(%d): %v", MaxPackedN, err)
	}
}

// TestPackedStepRejectsWideSystems pins where core enforces the flat bound.
// A system wider than MaxPackedN never reaches StepPacked: Config.Validate
// and PackSyndrome refuse it with the error that points to internal/fleet
// (sim.TestScalarFallbackBeyondPackedBound covers the constructors). At
// N = MaxPackedN the protocol builds and steps, and StepPacked refuses rows
// wider than its system.
func TestPackedStepRejectsWideSystems(t *testing.T) {
	if !strings.Contains(ErrBeyondPackedBound.Error(), "internal/fleet") {
		t.Fatalf("flat-bound error %q does not point to internal/fleet", ErrBeyondPackedBound)
	}
	edge := Config{N: MaxPackedN, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}}
	wide := edge
	wide.N = MaxPackedN + 1
	if err := wide.Validate(); !errors.Is(err, ErrBeyondPackedBound) {
		t.Fatalf("Validate(N=%d) = %v, want the flat-bound error", wide.N, err)
	}
	if _, err := PackSyndrome(NewSyndrome(wide.N, Healthy)); !errors.Is(err, ErrBeyondPackedBound) {
		t.Fatalf("PackSyndrome(N=%d) = %v, want the flat-bound error", wide.N, err)
	}
	p, err := NewProtocol(edge)
	if err != nil {
		t.Fatalf("NewProtocol(N=%d): %v", edge.N, err)
	}
	if _, err := p.StepPacked(PackedRoundInput{Round: 0, Rows: make([]BitSyndrome, wide.N+1)}); err == nil {
		t.Fatalf("StepPacked accepted %d rows on a %d-node protocol", wide.N+1, edge.N)
	}
	out, err := p.StepPacked(PackedRoundInput{Round: 0, Rows: make([]BitSyndrome, edge.N+1)})
	if err != nil {
		t.Fatalf("StepPacked(N=%d): %v", edge.N, err)
	}
	if out.Round != 0 {
		t.Fatalf("StepPacked(N=%d) reported round %d, want 0", edge.N, out.Round)
	}
}

// fillRandomMatrix installs random content — ε rows, ties, erased entries,
// asymmetric malicious opinions — into m and returns the installed rows.
func fillRandomMatrix(t *testing.T, st *rng.Stream, n int, m *Matrix) []Syndrome {
	t.Helper()
	rows := make([]Syndrome, n+1)
	for j := 1; j <= n; j++ {
		if !st.Bool(0.2) { // 20% ε rows
			rows[j] = randomSyndrome(st, n, 0.25)
		}
		if err := m.SetRow(j, rows[j]); err != nil {
			t.Fatalf("SetRow(%d): %v", j, err)
		}
	}
	return rows
}

// refVoteAll is the byte-per-entry reference of VoteAll: refVote per column.
func refVoteAll(rows []Syndrome) BitSyndrome {
	var out BitSyndrome
	votes := make([]Opinion, 0, len(rows))
	for j := 1; j < len(rows); j++ {
		if v, ok := refVote(rows, j, votes); ok {
			out.Set(j, v)
		}
	}
	return out
}

// TestVoteAllMatchesScalarReference is the seeded-corpus differential test of
// the word-parallel kernel: at every N in 1..MaxPackedN, random matrices must
// vote bit-identically to the byte-per-entry per-column reference, both
// through VoteAll and through the matrix's own per-column Vote.
func TestVoteAllMatchesScalarReference(t *testing.T) {
	st := rng.NewStream(21)
	for n := 1; n <= MaxPackedN; n++ {
		trials := 40
		if n > 16 {
			trials = 15
		}
		for trial := 0; trial < trials; trial++ {
			m, err := NewPackedMatrix(n)
			if err != nil {
				t.Fatalf("NewPackedMatrix(%d): %v", n, err)
			}
			rows := fillRandomMatrix(t, st, n, m)
			got, err := m.VoteAll()
			if err != nil {
				t.Fatalf("n=%d: VoteAll: %v", n, err)
			}
			if want := refVoteAll(rows); got != want {
				t.Fatalf("n=%d trial %d: VoteAll = %+v, want %+v\n%s", n, trial, got, want, m)
			}
			for j := 1; j <= n; j++ {
				if v, ok := m.Vote(j); got.Get(j) != map[bool]Opinion{true: v, false: Erased}[ok] {
					t.Fatalf("n=%d col %d: VoteAll %v, Vote %v/%v", n, j, got.Get(j), v, ok)
				}
			}
		}
	}
}

// TestVoteAllWorstCase pins the kernel's edge regimes directly: the all-rows
// all-Faulty matrix (maximal counter values at N = 64), exact ties, and the
// empty matrix.
func TestVoteAllWorstCase(t *testing.T) {
	n := MaxPackedN
	m, err := NewPackedMatrix(n)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.VoteAll(); got != (BitSyndrome{}) {
		t.Fatalf("empty matrix must vote ⊥ everywhere, got %+v", got)
	}
	allFaulty := NewSyndrome(n, Faulty)
	for j := 1; j <= n; j++ {
		if err := m.SetRow(j, allFaulty); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := m.VoteAll()
	if want := (BitSyndrome{Op: 0, Known: PlaneMask(n)}); got != want {
		t.Fatalf("all-faulty matrix: VoteAll = %+v, want %+v", got, want)
	}
	// Exact tie on every column: half the rows say Healthy, half Faulty.
	// The self-opinion mask removes one vote per column, so use opinions
	// that keep the tally an exact tie regardless: 2 rows, opposite votes.
	tie, err := NewPackedMatrix(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tie.SetRow(1, Syndrome{Erased, Healthy, Healthy, Healthy, Healthy}); err != nil {
		t.Fatal(err)
	}
	if err := tie.SetRow(2, Syndrome{Erased, Faulty, Faulty, Faulty, Faulty}); err != nil {
		t.Fatal(err)
	}
	tv, _ := tie.VoteAll()
	// Column 1 sees the single Faulty vote of row 2, column 2 the single
	// Healthy vote of row 1, and columns 3 and 4 a genuine 1-1 tie, which
	// Eqn. 1 resolves to Healthy.
	if want := "0111"; tv.String(4) != want {
		t.Fatalf("tie matrix: VoteAll = %s, want %s", tv.String(4), want)
	}
}

// FuzzVoteAll is the go-fuzz harness of the differential test: arbitrary row
// bytes (two planes per row) against the byte-per-entry reference at an
// arbitrary N.
// The checked-in corpus below doubles as a regular seeded test in CI.
func FuzzVoteAll(f *testing.F) {
	f.Add(uint8(4), []byte{0xff, 0x0f, 0x03, 0x0c, 0x00, 0x00, 0x05, 0x0a})
	f.Add(uint8(1), []byte{0x01, 0x01})
	f.Add(uint8(64), []byte{0xaa, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66})
	f.Add(uint8(17), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%MaxPackedN + 1
		packed, err := NewPackedMatrix(n)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Syndrome, n+1)
		// Consume 16 bytes per row (op word, known word); rows beyond the
		// data stay ε.
		for j := 1; j <= n && len(data) >= 16; j++ {
			var op, know uint64
			for i := 0; i < 8; i++ {
				op |= uint64(data[i]) << uint(8*i)
				know |= uint64(data[8+i]) << uint(8*i)
			}
			data = data[16:]
			row := BitSyndrome{Op: op, Known: know}.normalized(PlaneMask(n))
			if err := packed.SetBitRow(j, row); err != nil {
				t.Fatal(err)
			}
			rows[j] = row.Unpack(n)
		}
		got, err := packed.VoteAll()
		if err != nil {
			t.Fatal(err)
		}
		if want := refVoteAll(rows); got != want {
			t.Fatalf("n=%d: VoteAll = %+v, want %+v\n%s", n, got, want, packed)
		}
	})
}
