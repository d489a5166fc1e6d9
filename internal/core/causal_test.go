package core

import (
	"fmt"
	"strings"
	"testing"

	"ttdiag/internal/invariant"
	"ttdiag/internal/trace"
)

// causalScenario drives one observer through a scripted fault: node 3 is
// voted faulty for faultRounds consecutive warm rounds, then healthy again.
// With PenaltyThreshold 2 this isolates node 3 mid-script, and with
// ReintegrationThreshold 3 the healthy tail reintegrates it.
func causalScenario(t testing.TB, p *Protocol, rounds, faultFrom, faultTo int) {
	t.Helper()
	n := p.Config().N
	dms := make([]Syndrome, n+1)
	for j := 1; j <= n; j++ {
		dms[j] = NewSyndrome(n, Healthy)
	}
	validity := NewSyndrome(n, Healthy)
	for r := 0; r < rounds; r++ {
		faulty := r >= faultFrom && r < faultTo
		for j := 1; j <= n; j++ {
			if faulty {
				dms[j][3] = Faulty
			} else {
				dms[j][3] = Healthy
			}
		}
		if faulty {
			validity[3] = Faulty
		} else {
			validity[3] = Healthy
		}
		if _, err := p.Step(RoundInput{Round: r, DMs: dms, Validity: validity}); err != nil {
			t.Fatal(err)
		}
	}
}

func causalScenarioProtocol(t testing.TB) *Protocol {
	t.Helper()
	p, err := NewProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 2, RewardThreshold: 10, ReintegrationThreshold: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStepTraceCausalChain scripts a fault burst against node 3 and checks
// the emitted causal stream end to end: monotone penalty events carrying the
// threshold, an isolation with the trajectory that caused it, a
// reintegration once the observation window passes — and that trace.Explain
// reconstructs the chain from the stream alone.
func TestStepTraceCausalChain(t *testing.T) {
	p := causalScenarioProtocol(t)
	var rec trace.Recorder
	p.SetTrace(NewStepTrace(&rec))
	causalScenario(t, p, 24, 6, 12)

	events := rec.Events()
	var penalties, isolations, reintegrations []trace.Event
	for _, e := range events {
		if e.Subject != 3 {
			t.Fatalf("event about node %d in a node-3-only scenario: %+v", e.Subject, e)
		}
		switch e.Kind {
		case trace.KindPenalty:
			penalties = append(penalties, e)
		case trace.KindIsolation:
			isolations = append(isolations, e)
		case trace.KindReintegration:
			reintegrations = append(reintegrations, e)
		}
	}
	if len(isolations) != 1 {
		t.Fatalf("want exactly one isolation, got %d in %v", len(isolations), events)
	}
	iso := isolations[0]
	if iso.Penalty <= iso.Threshold || iso.Threshold != 2 {
		t.Fatalf("isolation counter state %d/%d does not show a crossing", iso.Penalty, iso.Threshold)
	}
	if !strings.HasPrefix(iso.Detail, "trajectory r") {
		t.Fatalf("isolation lacks its penalty trajectory: %q", iso.Detail)
	}
	if len(penalties) < 2 {
		t.Fatalf("want the penalty ramp before the isolation, got %v", penalties)
	}
	for i, e := range penalties {
		if e.Threshold != 2 {
			t.Fatalf("penalty event without threshold: %+v", e)
		}
		if want := int64(i + 1); e.Penalty != want {
			t.Fatalf("penalty ramp[%d] = %d, want %d", i, e.Penalty, want)
		}
	}
	if len(reintegrations) != 1 {
		t.Fatalf("want exactly one reintegration, got %v", reintegrations)
	}
	if reintegrations[0].Round <= iso.Round {
		t.Fatalf("reintegration at round %d not after isolation at %d", reintegrations[0].Round, iso.Round)
	}

	chain, err := trace.Explain(events, 3, iso.Round)
	if err != nil {
		t.Fatal(err)
	}
	if last := chain[len(chain)-1]; last.Kind != trace.KindIsolation {
		t.Fatalf("Explain chain ends in %v, want the isolation", last)
	}
	if len(chain) != len(penalties)+1 {
		t.Fatalf("Explain chain has %d events, want the %d penalty events plus the isolation", len(chain), len(penalties))
	}
}

// TestStepTraceResyncs pins the re-baselining contract: a Reset replays the
// identical scenario as an identical event stream (no spurious penalty
// deltas from stale baselines), and a CopyFrom'd twin with its own recorder
// continues emitting exactly the events the source emits from the copy
// point on.
func TestStepTraceResyncs(t *testing.T) {
	p := causalScenarioProtocol(t)
	var rec trace.Recorder
	p.SetTrace(NewStepTrace(&rec))
	causalScenario(t, p, 24, 6, 12)
	first := rec.Events()

	rec.Reset()
	p.Reset()
	causalScenario(t, p, 24, 6, 12)
	if i := trace.FirstDivergence(first, rec.Events()); i >= 0 {
		t.Fatalf("post-Reset replay diverges at event %d", i)
	}

	// Run the source mid-fault, fork a twin, then drive both through the
	// identical remainder.
	src := causalScenarioProtocol(t)
	var srcRec trace.Recorder
	src.SetTrace(NewStepTrace(&srcRec))
	causalScenario(t, src, 9, 6, 12)
	mark := srcRec.Len()

	dst := causalScenarioProtocol(t)
	var dstRec trace.Recorder
	dst.SetTrace(NewStepTrace(&dstRec))
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	tail := func(p *Protocol) {
		n := p.Config().N
		dms := make([]Syndrome, n+1)
		for j := 1; j <= n; j++ {
			dms[j] = NewSyndrome(n, Healthy)
		}
		validity := NewSyndrome(n, Healthy)
		for r := 9; r < 24; r++ {
			faulty := r < 12
			for j := 1; j <= n; j++ {
				dms[j][3] = Healthy
				if faulty {
					dms[j][3] = Faulty
				}
			}
			validity[3] = Healthy
			if faulty {
				validity[3] = Faulty
			}
			if _, err := p.Step(RoundInput{Round: r, DMs: dms, Validity: validity}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tail(src)
	tail(dst)
	srcTail := srcRec.Events()[mark:]
	if i := trace.FirstDivergence(srcTail, dstRec.Events()); i >= 0 {
		t.Fatalf("CopyFrom twin diverges from the source at post-copy event %d:\nsrc %v\ndst %v",
			i, srcTail, dstRec.Events())
	}
	if len(srcTail) == 0 {
		t.Fatalf("no post-copy events — the continuation check is vacuous")
	}
}

// TestStepTraceQuietRoundsEmitNothing: a steady-state healthy system with a
// recorder attached produces an empty stream — the flight recorder is silent
// unless a counter actually moves.
func TestStepTraceQuietRoundsEmitNothing(t *testing.T) {
	p := causalScenarioProtocol(t)
	var rec trace.Recorder
	p.SetTrace(NewStepTrace(&rec))
	causalScenario(t, p, 24, 0, 0)
	if rec.Len() != 0 {
		t.Fatalf("healthy run emitted %d events: %v", rec.Len(), rec.Events())
	}
}

// TestStepTraceAllocs: the flight recorder must not disturb the Step
// allocation ceilings — zero extra allocations when attached and quiet, and
// none at all from the nil check when detached.
func TestStepTraceAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checking boxes Checkf arguments and inflates the allocation count")
	}
	for _, withTrace := range []bool{false, true} {
		name := map[bool]string{false: "detached", true: "attached_quiet"}[withTrace]
		t.Run(name, func(t *testing.T) {
			p, err := NewProtocol(Config{
				N: 8, ID: 1, L: 0, SendCurrRound: true,
				PR: PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
			})
			if err != nil {
				t.Fatal(err)
			}
			if withTrace {
				p.SetTrace(NewStepTrace(trace.Discard{}))
			}
			dms := make([]Syndrome, 9)
			for j := 1; j <= 8; j++ {
				dms[j] = NewSyndrome(8, Healthy)
			}
			validity := NewSyndrome(8, Healthy)
			round := 0
			step := func() {
				if _, err := p.Step(RoundInput{Round: round, DMs: dms, Validity: validity}); err != nil {
					t.Fatal(err)
				}
				round++
			}
			for i := 0; i < 16; i++ {
				step()
			}
			base := testing.AllocsPerRun(200, step)
			// The warm Step ceilings are pinned by allocs_test.go;
			// here we only require the trace attachment to add nothing.
			p.SetTrace(nil)
			detached := testing.AllocsPerRun(200, step)
			if base != detached {
				t.Fatalf("quiet trace attachment changes Step allocations: %v with, %v without", base, detached)
			}
		})
	}
}

func BenchmarkStepTrace(b *testing.B) {
	for _, n := range []int{4, 64} {
		for _, withTrace := range []bool{false, true} {
			mode := "off"
			if withTrace {
				mode = "on"
			}
			b.Run(fmt.Sprintf("n%d_%s", n, mode), func(b *testing.B) {
				p, err := NewProtocol(Config{
					N: n, ID: 1, L: 0, SendCurrRound: true,
					PR: PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
				})
				if err != nil {
					b.Fatal(err)
				}
				if withTrace {
					p.SetTrace(NewStepTrace(trace.Discard{}))
				}
				dms := make([]Syndrome, n+1)
				for j := 1; j <= n; j++ {
					dms[j] = NewSyndrome(n, Healthy)
				}
				validity := NewSyndrome(n, Healthy)
				in := RoundInput{DMs: dms, Validity: validity}
				for i := 0; i < 16; i++ {
					in.Round = i
					if _, err := p.Step(in); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in.Round = 16 + i
					if _, err := p.Step(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
