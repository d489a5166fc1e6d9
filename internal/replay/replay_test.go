package replay

import (
	"bytes"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// scenario is one recorded run: a cluster configuration, its faults, its
// length, and the deviation its trace must show for the scenario to
// exercise what it is named for.
type scenario struct {
	name    string
	cfg     sim.ClusterConfig
	rounds  int
	faults  func(*tdma.Schedule) []tdma.Disturbance
	feature func(trace.Event) bool
}

var replayCfg = sim.ClusterConfig{
	Ls: []int{2, 0, 3, 1},
	PR: core.PRConfig{PenaltyThreshold: 5, RewardThreshold: 20},
}

// slotHits corrupts node's sending slot in rounds [from, to).
func slotHits(sched *tdma.Schedule, node tdma.NodeID, from, to int) tdma.Disturbance {
	var bursts []fault.Burst
	for r := from; r < to; r++ {
		bursts = append(bursts, fault.SlotBurst(sched, r, int(node), 1))
	}
	return fault.NewTrain(bursts...)
}

// flightRecorderCfg and flightRecorderFaults are the flight-recorder
// example: node 3's slot is hit for 7 rounds, node 3 is isolated, and its
// later (clean) transmissions are ignored by every controller.
var flightRecorderCfg = sim.ClusterConfig{PR: core.PRConfig{PenaltyThreshold: 5, RewardThreshold: 20}}

func flightRecorderFaults(sched *tdma.Schedule) []tdma.Disturbance {
	return []tdma.Disturbance{slotHits(sched, 3, 6, 13)}
}

var scenarios = []scenario{
	{
		name: "burst-crash", cfg: replayCfg, rounds: 30,
		faults: func(sched *tdma.Schedule) []tdma.Disturbance {
			return []tdma.Disturbance{
				fault.NewTrain(fault.SlotBurst(sched, 6, 3, 2)),
				fault.Crash(4, 12),
			}
		},
		feature: func(e trace.Event) bool { return e.Collision && e.Node == 4 },
	},
	{
		name: "recovered-isolation", cfg: flightRecorderCfg, rounds: 30,
		faults:  flightRecorderFaults,
		feature: func(e trace.Event) bool { return e.Kind == trace.KindIsolation },
	},
	{
		name: "malicious", cfg: replayCfg, rounds: 30,
		faults: func(*tdma.Schedule) []tdma.Disturbance {
			m := fault.NewMaliciousSyndrome(2, rng.NewSource(7).Stream("malicious"))
			m.FromRound, m.ToRound = 4, 12
			return []tdma.Disturbance{m}
		},
		feature: func(e trace.Event) bool { return e.Payload != "" },
	},
	{
		name: "receiver-blind", cfg: replayCfg, rounds: 24,
		faults: func(*tdma.Schedule) []tdma.Disturbance {
			return []tdma.Disturbance{fault.ReceiverBlind{
				Receiver: 1, Senders: []tdma.NodeID{3}, FromRound: 8, ToRound: 14,
			}}
		},
		feature: func(e trace.Event) bool { return e.Detail == "asymmetric" && e.Invalid == 1 },
	},
	{
		name: "reintegration", rounds: 28,
		cfg: sim.ClusterConfig{
			Ls: []int{2, 0, 3, 1},
			PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3, ReintegrationThreshold: 4},
		},
		faults:  func(sched *tdma.Schedule) []tdma.Disturbance { return []tdma.Disturbance{slotHits(sched, 3, 6, 11)} },
		feature: func(e trace.Event) bool { return e.Kind == trace.KindReintegration },
	},
}

// liveRun executes a scenario on a live cluster and returns its JSONL trace
// and every observer's diagnoses (1-based), in RoundDiagnosis form.
func liveRun(t *testing.T, sc scenario) ([]byte, [][]RoundDiagnosis) {
	t.Helper()
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	cfg := sc.cfg
	cfg.Sink = jw
	eng, runners, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(runners) - 1
	live := make([][]RoundDiagnosis, n+1)
	for id := 1; id <= n; id++ {
		id := id
		runners[id].OnOutput = func(o core.RoundOutput) {
			if o.ConsHV.Known != 0 {
				live[id] = append(live[id], RoundDiagnosis{
					Round: o.Round, DiagnosedRound: o.DiagnosedRound, ConsHV: o.ConsHV, Isolated: o.Isolated,
				})
			}
		}
	}
	for _, d := range sc.faults(eng.Schedule()) {
		eng.Bus().AddDisturbance(d)
	}
	if err := eng.RunRounds(sc.rounds); err != nil {
		t.Fatal(err)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), live
}

func decode(t *testing.T, b []byte) []trace.Event {
	t.Helper()
	events, err := trace.ReadJSONL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestReplayReconstructsLiveDiagnosis is the flight-recorder property, a
// fixpoint: replaying a recorded trace under the live configuration
// reproduces the trace byte for byte, and every observer's diagnoses equal
// the live ones in every round.
func TestReplayReconstructsLiveDiagnosis(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			recorded, live := liveRun(t, sc)
			events := decode(t, recorded)
			exercised := false
			for _, e := range events {
				exercised = exercised || sc.feature(e)
			}
			if !exercised {
				t.Fatalf("the %s scenario's trace does not show the deviation it is named for", sc.name)
			}
			for observer := 1; observer < len(live); observer++ {
				var replayed bytes.Buffer
				cfg := sc.cfg
				cfg.Sink = trace.NewJSONLWriter(&replayed)
				diags, err := Replay(events, cfg, observer)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(replayed.Bytes(), recorded) {
					got := decode(t, replayed.Bytes())
					i := trace.FirstDivergence(got, events)
					t.Fatalf("observer %d: replayed trace diverges at event %d", observer, i)
				}
				if len(live[observer]) == 0 {
					t.Fatalf("observer %d diagnosed nothing live", observer)
				}
				if !reflect.DeepEqual(diags, live[observer]) {
					t.Fatalf("observer %d: replayed diagnoses\n%+v\nwant live\n%+v", observer, diags, live[observer])
				}
			}
		})
	}
}

// TestReplayIgnoresIsolatedSender pins the flight-recorder example: after
// node 3's isolation its clean transmissions are ignored by every
// controller, so observers 1 and 2 diagnose round 14 as 1101, as the live
// run did.
func TestReplayIgnoresIsolatedSender(t *testing.T) {
	recorded, _ := liveRun(t, scenarios[1])
	events := decode(t, recorded)
	for observer := 1; observer <= 2; observer++ {
		diags, err := Replay(events, flightRecorderCfg, observer)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range diags {
			if d.DiagnosedRound == 14 {
				found = true
				if got := d.ConsHV.String(4); got != "1101" {
					t.Fatalf("observer %d: cons_hv(round 14) = %s, want 1101", observer, got)
				}
			}
		}
		if !found {
			t.Fatalf("observer %d never diagnosed round 14", observer)
		}
	}
}

// TestCounterfactualReplay is the what-if analysis the flight recorder
// enables: replaying the same trace under a different penalty/reward tuning
// answers "would a larger P have avoided this isolation?".
func TestCounterfactualReplay(t *testing.T) {
	recorded, _ := liveRun(t, scenarios[1])
	events := decode(t, recorded)
	countIsolations := func(p int64) int {
		cfg := flightRecorderCfg
		cfg.PR.PenaltyThreshold = p
		diags, err := Replay(events, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range diags {
			total += bits.OnesCount64(d.Isolated)
		}
		return total
	}
	if got := countIsolations(5); got == 0 {
		t.Fatal("deployed tuning should have isolated nodes")
	}
	if got := countIsolations(50); got != 0 {
		t.Fatalf("counterfactual P=50 still isolated %d nodes", got)
	}
}

func TestLayout(t *testing.T) {
	recorded, _ := liveRun(t, scenarios[0])
	n, ls, err := Layout(decode(t, recorded))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || !reflect.DeepEqual(ls, replayCfg.Ls) {
		t.Fatalf("Layout = %d, %v; want 4, %v", n, ls, replayCfg.Ls)
	}
}

func TestReplayValidation(t *testing.T) {
	recorded, _ := liveRun(t, scenarios[0])
	events := decode(t, recorded)
	wantErr := func(name, substr string, events []trace.Event, cfg sim.ClusterConfig, observer int) {
		t.Helper()
		_, err := Replay(events, cfg, observer)
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, substr)
		}
	}
	wantErr("size mismatch", "covers 4 nodes", events, sim.ClusterConfig{N: 6}, 1)
	wantErr("schedule mismatch", "position", events, sim.ClusterConfig{PR: replayCfg.PR}, 1)
	wantErr("observer 0", "observer 0", events, replayCfg, 0)
	wantErr("observer 5", "observer 5", events, replayCfg, 5)
	wantErr("empty trace", "2..", nil, replayCfg, 1)

	lastTx := len(events) - 1
	for events[lastTx].Kind != trace.KindTransmit {
		lastTx--
	}
	var dropped, doubled, legacy []trace.Event
	for i, e := range events {
		if i != lastTx {
			dropped = append(dropped, e)
		}
		doubled = append(doubled, e)
		if e.Kind == trace.KindTransmit {
			e.Invalid, e.Collision, e.Payload = 0, false, ""
		}
		legacy = append(legacy, e)
	}
	doubled[5] = doubled[3]
	if events[3].Kind != trace.KindTransmit || events[5].Kind != trace.KindTransmit {
		t.Fatal("events 3 and 5 are not transmissions")
	}
	wantErr("missing slot", "transmissions", dropped, replayCfg, 1)
	wantErr("doubled slot", "recorded twice", doubled, replayCfg, 1)
	wantErr("pre-v3 trace", "without its recorded deviations", legacy, replayCfg, 1)
}
