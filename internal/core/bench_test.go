package core

import (
	"fmt"
	"testing"

	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
)

// benchSizes are the system widths tracked in BENCH_core.json.
var benchSizes = []int{4, 16, 32, 64}

// benchMatrices builds a packed matrix and its byte-per-entry rows with
// pseudo-random content (ε rows, erased entries, mixed opinions).
func benchMatrices(b *testing.B, n int) (*Matrix, []Syndrome) {
	b.Helper()
	m, err := NewPackedMatrix(n)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]Syndrome, n+1)
	st := rng.NewStream(int64(77 + n))
	for j := 1; j <= n; j++ {
		if !st.Bool(0.1) {
			rows[j] = NewSyndrome(n, Faulty)
			for i := 1; i <= n; i++ {
				if st.Bool(0.1) {
					rows[j][i] = Erased
				} else {
					rows[j][i] = Opinion(st.Intn(2))
				}
			}
		}
		if err := m.SetRow(j, rows[j]); err != nil {
			b.Fatal(err)
		}
	}
	return m, rows
}

// BenchmarkVoteAll measures the word-parallel bit-sliced voting kernel: the
// consistent health vector for all N columns from one pass over the row
// planes.
func BenchmarkVoteAll(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			m, _ := benchMatrices(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.VoteAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVoteAllScalar is the baseline BenchmarkVoteAll is measured
// against: the byte-per-entry per-column H-maj loop of the reference over the
// same content (O(N^2) byte operations).
func BenchmarkVoteAllScalar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			_, rows := benchMatrices(b, n)
			votes := make([]Opinion, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out BitSyndrome
				for j := 1; j <= n; j++ {
					if v, ok := refVote(rows, j, votes); ok {
						out.Set(j, v)
					}
				}
			}
		})
	}
}

// benchStepProtocol builds a warmed steady-state protocol plus its healthy
// round input for the Step telemetry-overhead benchmarks.
func benchStepProtocol(b *testing.B, n int, withMetrics bool) func(round int) {
	b.Helper()
	p, err := NewProtocol(Config{
		N: n, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
	})
	if err != nil {
		b.Fatal(err)
	}
	if withMetrics {
		p.SetMetrics(NewStepMetrics(metrics.New()))
	}
	dms := make([]Syndrome, n+1)
	for j := 1; j <= n; j++ {
		dms[j] = NewSyndrome(n, Healthy)
	}
	validity := NewSyndrome(n, Healthy)
	collision := func(int) Opinion { return Healthy }
	step := func(round int) {
		in := RoundInput{Round: round, DMs: dms, Validity: validity, Collision: collision}
		if _, err := p.Step(in); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		step(i)
	}
	return step
}

// BenchmarkStepMetrics measures the telemetry cost of one protocol
// execution: "off" is the nil-attachment baseline (one branch), "on" pays
// the full StepMetrics instrument set. Tracked in BENCH_metrics.json.
func BenchmarkStepMetrics(b *testing.B) {
	for _, n := range []int{4, 64} {
		for _, withMetrics := range []bool{false, true} {
			mode := "off"
			if withMetrics {
				mode = "on"
			}
			b.Run(fmt.Sprintf("n%d_%s", n, mode), func(b *testing.B) {
				step := benchStepProtocol(b, n, withMetrics)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(16 + i)
				}
			})
		}
	}
}

// BenchmarkStepBatch measures one gang execution: ⌊64/N⌋ independent runs
// advanced by a single lane-packed protocol step. Divide ns/op by the lane
// count for the amortised per-run cost; compare against BenchmarkProtocolStep
// in BENCH_campaign.json for the per-run packed baseline. The plain variant
// steps a quiet matrix, whose vote the kernel skips; the _faulty variant has
// one Faulty opinion in every lane, so it times the full vote. The N=64
// _loud variants carry random opinions in rows 2..32, the 31 malicious
// senders of the widest scale-resilience case: _loud votes in full, and
// _loud_tally corrects the vote tally another observer of the gang
// recorded (one differing row, that observer's own). Tracked in
// BENCH_core.json.
func BenchmarkStepBatch(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n%d_g%d", n, BatchLanes(n)), func(b *testing.B) {
			benchStepBatch(b, n, quietLoad, nil, false)
		})
		b.Run(fmt.Sprintf("n%d_g%d_faulty", n, BatchLanes(n)), func(b *testing.B) {
			benchStepBatch(b, n, faultyLoad, nil, false)
		})
	}
	b.Run("n64_g1_loud", func(b *testing.B) {
		benchStepBatch(b, 64, loudLoad, nil, false)
	})
	b.Run("n64_g1_loud_tally", func(b *testing.B) {
		benchStepBatch(b, 64, loudLoad, nil, true)
	})
}

// BenchmarkStepBatchMetrics is BenchmarkStepBatch with telemetry attached
// the way campaigns attach it: one StepMetrics shared by every lane, so the
// difference to BenchmarkStepBatch/n4_g16 is the gang's emitMetrics. Tracked
// in BENCH_metrics.json.
func BenchmarkStepBatchMetrics(b *testing.B) {
	b.Run("n4_g16", func(b *testing.B) {
		benchStepBatch(b, 4, quietLoad, NewStepMetrics(metrics.New()), false)
	})
}

// stepBatchLoad is the content of benchStepBatch's rows.
type stepBatchLoad int

const (
	// quietLoad: every row all-Healthy, so the vote is skipped.
	quietLoad stepBatchLoad = iota
	// faultyLoad: row 2 accuses node N in every lane, which keeps every
	// matrix from being quiet without changing any verdict.
	faultyLoad
	// loudLoad: rows 2..N/2 hold random opinions in every lane.
	loudLoad
)

// benchStepBatch times steady-state StepBatch calls of a full-width gang of
// node 1 on the rows of load, with m (when non-nil) on every lane. With
// tally, node 1 shares a vote tally with a node 2 gang that steps the same
// rows during the warm-up, so node 1's timed steps correct node 2's vote.
func benchStepBatch(b *testing.B, n int, load stepBatchLoad, m *StepMetrics, tally bool) {
	lanes := BatchLanes(n)
	newGang := func(id int) *BatchProtocol {
		p, err := NewBatchProtocol(Config{
			N: n, ID: id, L: 0, SendCurrRound: true,
			PR: PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
		}, lanes)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	p := newGang(1)
	if m != nil {
		for r := 0; r < lanes; r++ {
			p.SetLaneMetrics(r, m)
		}
	}
	allB := p.allB
	rows := make([]BitSyndrome, n+1)
	for j := 1; j <= n; j++ {
		rows[j] = BitSyndrome{Op: allB, Known: allB}
	}
	switch load {
	case faultyLoad:
		rows[2].Op &^= p.laneRep << uint(n-1)
	case loudLoad:
		st := rng.NewStream(int64(91 + n))
		for j := 2; j <= n/2; j++ {
			rows[j].Op = st.Uint64() & allB
		}
	}
	in := BatchRoundInput{Rows: rows, Present: allB, Validity: BitSyndrome{Op: allB, Known: allB}}
	var twin *BatchProtocol
	if tally {
		in.Tally = NewVoteTally(n)
		twin = newGang(2)
	}
	for i := 0; i < 16; i++ {
		in.Round = i
		if twin != nil {
			if _, err := twin.StepBatch(in); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.StepBatch(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Round = 16 + i
		if _, err := p.StepBatch(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrixSetRow measures installing one row as two word stores.
func BenchmarkMatrixSetRow(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("packed_n%d", n), func(b *testing.B) {
			m, _ := benchMatrices(b, n)
			row := bitSyndromeAllHealthy(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.SetBitRow(i%n+1, row); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointRestore compares the two checkpoint paths on a warm
// mid-run protocol: the JSON Snapshot/RestoreProtocol round-trip (the
// executable reference) against the zero-copy CopyFrom fast path that
// splitting clones use at every level crossing.
func BenchmarkCheckpointRestore(b *testing.B) {
	mkWarm := func(b *testing.B, n int) *Protocol {
		b.Helper()
		p, err := NewProtocol(Config{
			N: n, ID: 2, L: 0, SendCurrRound: true, Mode: ModeMembership,
			PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 4, ReintegrationThreshold: 6},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range copyFromTape(13, n, 16) {
			if _, err := p.Step(in); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	for _, n := range benchSizes {
		src := mkWarm(b, n)
		b.Run(fmt.Sprintf("json/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := src.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := RestoreProtocol(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("copyfrom/n%d", n), func(b *testing.B) {
			dst, err := NewProtocol(src.Config())
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.CopyFrom(src); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.CopyFrom(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
