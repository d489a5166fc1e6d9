package core

import (
	"testing"

	"ttdiag/internal/metrics"
)

// metricsScenario steps a protocol through warm-up, a fault window in which
// most nodes accuse node 3 (node 2 dissents, so the matrix carries genuine
// disagreement), and a recovery tail. It exercises healthy votes, faulty
// votes, disagreements, penalty growth and — with a low threshold —
// isolation and reintegration.
func metricsScenario(t *testing.T, p *Protocol) {
	t.Helper()
	n := p.Config().N
	healthy := NewSyndrome(n, Healthy)
	accuse3 := NewSyndrome(n, Healthy)
	accuse3[3] = Faulty
	collision := func(int) Opinion { return Healthy }
	for round := 0; round < 24; round++ {
		dms := make([]Syndrome, n+1)
		validity := healthy
		for j := 1; j <= n; j++ {
			dms[j] = healthy
		}
		if round >= 6 && round < 12 {
			for j := 1; j <= n; j++ {
				if j != 2 { // node 2 dissents: disagreement with the vote
					dms[j] = accuse3
				}
			}
			validity = accuse3
		}
		if _, err := p.Step(RoundInput{Round: round, DMs: dms, Validity: validity, Collision: collision}); err != nil {
			t.Fatal(err)
		}
	}
}

func newMetricsProtocol(t *testing.T) *Protocol {
	t.Helper()
	p, err := NewProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStepMetricsScenario runs the fault scenario with every instrument
// attached and requires each of them to record it: steps, both vote
// outcomes, disagreements, both threshold crossings, the penalty watermark
// and the trajectory series.
func TestStepMetricsScenario(t *testing.T) {
	reg := metrics.New()
	p := newMetricsProtocol(t)
	sm := NewStepMetrics(reg)
	sm.PenaltySeries = []*metrics.Series{nil, reg.Series("penalty/node-1", 64), nil, reg.Series("penalty/node-3", 64)}
	p.SetMetrics(sm)
	metricsScenario(t, p)
	a := reg.Snapshot()
	if a.Counters["protocol/steps"] != 24 {
		t.Fatalf("steps = %d, want 24", a.Counters["protocol/steps"])
	}
	if a.Counters["vote/faulty"] == 0 || a.Counters["vote/healthy"] == 0 {
		t.Fatalf("vote outcomes not exercised: %v", a.Counters)
	}
	if a.Counters["matrix/disagreements"] == 0 {
		t.Fatalf("dissenting row produced no disagreement: %v", a.Counters)
	}
	if a.Counters["pr/isolations"] == 0 || a.Counters["pr/reintegrations"] == 0 {
		t.Fatalf("threshold crossings not exercised: %v", a.Counters)
	}
	if a.Gauges["pr/penalty_max"] < 3 {
		t.Fatalf("penalty watermark = %d, want >= threshold", a.Gauges["pr/penalty_max"])
	}
	s := a.Series["penalty/node-3"]
	if len(s.Rounds) == 0 {
		t.Fatalf("penalty series empty")
	}
	var sawGrowth bool
	for i := range s.Values {
		if s.Values[i] > 0 {
			sawGrowth = true
		}
	}
	if !sawGrowth {
		t.Fatalf("penalty series never grew: %v", s.Values)
	}
}

// TestStepMetricsVoteClassification pins the per-column classification on
// an all-healthy steady state: N healthy votes per warm round, no ⊥, no
// ties, no disagreement.
func TestStepMetricsVoteClassification(t *testing.T) {
	reg := metrics.New()
	p := newMetricsProtocol(t)
	p.SetMetrics(NewStepMetrics(reg))
	n := p.Config().N
	healthy := NewSyndrome(n, Healthy)
	dms := make([]Syndrome, n+1)
	for j := 1; j <= n; j++ {
		dms[j] = healthy
	}
	rounds := 10
	for round := 0; round < rounds; round++ {
		if _, err := p.Step(RoundInput{Round: round, DMs: dms, Validity: healthy,
			Collision: func(int) Opinion { return Healthy }}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	warm := int64(rounds - p.Config().Lag())
	if got := snap.Counters["vote/healthy"]; got != warm*int64(n) {
		t.Fatalf("healthy votes = %d, want %d", got, warm*int64(n))
	}
	for _, k := range []string{"vote/faulty", "vote/bottom", "vote/tied", "matrix/disagreements"} {
		if snap.Counters[k] != 0 {
			t.Fatalf("%s = %d, want 0", k, snap.Counters[k])
		}
	}
}

// TestStepMetricsSurviveReset pins the reuse contract: Reset rewinds the
// protocol but keeps the attachment, so a reusable campaign cluster
// accumulates across repetitions without re-wiring.
func TestStepMetricsSurviveReset(t *testing.T) {
	reg := metrics.New()
	p := newMetricsProtocol(t)
	p.SetMetrics(NewStepMetrics(reg))
	metricsScenario(t, p)
	after1 := reg.Snapshot().Counters["protocol/steps"]
	p.Reset()
	if p.Metrics() == nil {
		t.Fatalf("Reset dropped the metrics attachment")
	}
	metricsScenario(t, p)
	if got := reg.Snapshot().Counters["protocol/steps"]; got != 2*after1 {
		t.Fatalf("steps after reset+rerun = %d, want %d", got, 2*after1)
	}
	p.Reset()
	p.SetMetrics(nil)
	metricsScenario(t, p) // detached: must not panic, must not count
	if got := reg.Snapshot().Counters["protocol/steps"]; got != 2*after1 {
		t.Fatalf("detached protocol still counted: %d", got)
	}
}

// TestTallyMatchesVote checks Vote == tallyVerdict(Tally) on matrices filled
// through SetBitRow and through SetRow over a sweep of deterministic
// pseudo-random fills, and Tally and DisagreementCount against counts taken
// over the byte-per-entry rows.
func TestTallyMatchesVote(t *testing.T) {
	for _, n := range []int{3, 4, 7} {
		for fill := 0; fill < 32; fill++ {
			packed, err := NewPackedMatrix(n)
			if err != nil {
				t.Fatal(err)
			}
			viaRow := mustMatrix(t, n)
			rows := make([]Syndrome, n+1)
			state := uint64(fill)*2654435761 + 12345
			next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
			for i := 1; i <= n; i++ {
				if next()%4 == 0 {
					continue // ε row
				}
				row := NewSyndrome(n, Erased)
				var bitRow BitSyndrome
				for j := 1; j <= n; j++ {
					switch next() % 3 {
					case 0:
						row[j] = Healthy
						bitRow.Set(j, Healthy)
					case 1:
						row[j] = Faulty
						bitRow.Set(j, Faulty)
					}
				}
				if err := packed.SetBitRow(i, bitRow); err != nil {
					t.Fatal(err)
				}
				if err := viaRow.SetRow(i, row); err != nil {
					t.Fatal(err)
				}
				rows[i] = row
			}
			for _, m := range []*Matrix{packed, viaRow} {
				for j := 1; j <= n; j++ {
					f, h := m.Tally(j)
					wantV, wantOK := tallyVerdict(f, h)
					gotV, gotOK := m.Vote(j)
					if gotV != wantV || gotOK != wantOK {
						t.Fatalf("n=%d fill=%d col=%d: Vote=(%v,%v), tallyVerdict(Tally)=(%v,%v)", n, fill, j, gotV, gotOK, wantV, wantOK)
					}
				}
			}
			// Tally and DisagreementCount against the byte-per-entry rows.
			cons := NewSyndrome(n, Erased)
			for j := 1; j <= n; j++ {
				if v, ok := packed.Vote(j); ok {
					cons[j] = v
				}
			}
			disagreements := 0
			for j := 1; j <= n; j++ {
				var wf, wh int
				for i := 1; i <= n; i++ {
					if i == j || rows[i] == nil {
						continue
					}
					switch rows[i][j] {
					case Faulty:
						wf++
					case Healthy:
						wh++
					}
					if rows[i][j] != Erased && cons[j] != Erased && rows[i][j] != cons[j] {
						disagreements++
					}
				}
				if f, h := packed.Tally(j); f != wf || h != wh {
					t.Fatalf("n=%d fill=%d col=%d: Tally (%d,%d), rows count (%d,%d)", n, fill, j, f, h, wf, wh)
				}
			}
			if got := packed.DisagreementCount(cons); got != disagreements {
				t.Fatalf("n=%d fill=%d: DisagreementCount %d, rows count %d", n, fill, got, disagreements)
			}
		}
	}
}
