package replay

import (
	"bytes"
	"math/bits"
	"strings"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// recordRun executes a live cluster with a fault scenario, records the bus
// transcript and collects the live per-round health vectors of every node.
func recordRun(t *testing.T, cfg sim.ClusterConfig, rounds int, arm func(*sim.Engine)) (*Log, [][]core.BitSyndrome, []sim.Isolation) {
	t.Helper()
	eng, runners, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	eng.OnReport = func(rep *tdma.TxReport) {
		if err := w.RecordReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	col := sim.NewCollector()
	for id := 1; id <= 4; id++ {
		col.HookDiag(id, runners[id])
	}
	if arm != nil {
		arm(eng)
	}
	if err := eng.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	log, err := Read(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	return log, col.ConsHV, col.Isolations
}

var replayCfg = sim.ClusterConfig{
	Ls: []int{2, 0, 3, 1},
	PR: core.PRConfig{PenaltyThreshold: 5, RewardThreshold: 20},
}

// TestReplayReconstructsLiveDiagnosis is the core flight-recorder property:
// replaying the transcript must reproduce every live health vector and the
// isolation decision, for every observer.
func TestReplayReconstructsLiveDiagnosis(t *testing.T) {
	const rounds = 30
	log, liveHV, liveIso := recordRun(t, replayCfg, rounds, func(eng *sim.Engine) {
		eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 6, 3, 2)))
		eng.Bus().AddDisturbance(fault.Crash(4, 12))
	})
	if log.LastRound() != rounds-1 {
		t.Fatalf("transcript covers rounds up to %d, want %d", log.LastRound(), rounds-1)
	}
	for observer := 1; observer <= 4; observer++ {
		diags, err := Replay(log, replayCfg, observer)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Fatal("no diagnoses reconstructed")
		}
		var isoRound int
		for _, d := range diags {
			want := liveHV[d.DiagnosedRound][observer]
			if d.ConsHV != want {
				t.Fatalf("observer %d round %d: replay %s != live %s",
					observer, d.DiagnosedRound, d.ConsHV.String(4), want.String(4))
			}
			if d.Isolated != 0 {
				if d.Isolated != 1<<3 {
					t.Fatalf("replay isolated nodes %#x, want node 4 only", d.Isolated)
				}
				isoRound = d.Round
			}
		}
		found := false
		for _, iso := range liveIso {
			if iso.Observer == observer && iso.Round == isoRound && iso.Node == 4 {
				found = true
			}
		}
		if !found {
			t.Fatalf("observer %d: replayed isolation at round %d not in live record %+v",
				observer, isoRound, liveIso)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	log, _, _ := recordRun(t, replayCfg, 6, nil)
	if _, err := Replay(log, sim.ClusterConfig{N: 6, RoundLen: 3 * sim.DefaultRoundLen / 2}, 1); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := Replay(log, replayCfg, 0); err == nil {
		t.Error("observer 0 accepted")
	}
	if _, err := Replay(log, replayCfg, 5); err == nil {
		t.Error("observer 5 accepted")
	}
}

func TestReadValidation(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n"), 4); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"round":0,"slot":9,"valid":[false,true,true,true,true]}`+"\n"), 4); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := Read(strings.NewReader(`{"round":0,"slot":1,"valid":[false,true]}`+"\n"), 4); err == nil {
		t.Error("short valid vector accepted")
	}
	log, err := Read(strings.NewReader("\n\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if log.LastRound() != -1 {
		t.Errorf("empty log LastRound = %d", log.LastRound())
	}
	if _, ok := log.At(0, 1); ok {
		t.Error("empty log has records")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	rep := &tdma.TxReport{
		Tx: tdma.Transmission{Sender: 2, Round: 3, Slot: 2, Payload: []byte{0xAB}},
		Deliveries: []tdma.Delivery{
			{},
			{Valid: true, Payload: []byte{0xAB}},
			{Valid: true, Payload: []byte{0xAB}},
			{Valid: false},
			{Valid: true, Payload: []byte{0xAB}},
		},
		Collision: false,
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).RecordReport(rep); err != nil {
		t.Fatal(err)
	}
	log, err := Read(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := log.At(3, 2)
	if !ok {
		t.Fatal("record missing")
	}
	if rec.Valid[3] || !rec.Valid[1] || !rec.Valid[2] || !rec.Valid[4] {
		t.Fatalf("validity wrong: %+v", rec)
	}
	if len(rec.Payload) != 1 || rec.Payload[0] != 0xAB {
		t.Fatalf("payload wrong: %+v", rec)
	}
}

// TestCounterfactualReplay is the what-if analysis the flight recorder
// enables: replaying the same transcript under a different penalty/reward
// tuning answers "would a larger P have avoided this isolation?" offline.
func TestCounterfactualReplay(t *testing.T) {
	log, _, _ := recordRun(t, replayCfg, 30, func(eng *sim.Engine) {
		// A 6-round transient burst on node 3: with P=5 it is isolated,
		// with P=50 it would have survived.
		eng.Bus().AddDisturbance(fault.NewTrain(fault.Burst{
			Start:  eng.Schedule().RoundStart(6),
			Length: 6 * eng.Schedule().RoundLen(),
		}))
	})

	countIsolations := func(p int64) int {
		cfg := replayCfg
		cfg.PR = core.PRConfig{PenaltyThreshold: p, RewardThreshold: 20}
		diags, err := Replay(log, cfg, 1)
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
