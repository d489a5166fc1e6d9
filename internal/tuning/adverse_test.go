package tuning

import (
	"testing"
	"time"

	"ttdiag/internal/fault"
)

// TestBlinkingLightAlignedPhase reproduces the automotive row of Table 4
// with round-aligned bursts (the analytically predictable case):
//
//	SC  (s=40): 5th faulty round is the 1st round of the 2nd burst
//	            -> decision at round 207 -> 517.5 ms   (paper: 0.518 s)
//	SR  (s=6):  33rd faulty round opens the 9th burst
//	            -> decision at round 1635 -> 4.0875 s  (paper: 4.595 s)
//	NSR (s=1):  198th faulty round is in the 50th burst
//	            -> decision at round 10000 -> 25.0 s   (paper: 24.475 s)
func TestBlinkingLightAlignedPhase(t *testing.T) {
	res, err := Derive(Automotive())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TimeToIncorrectIsolation(fault.BlinkingLight(), res, 1, serial, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"SC":  517500 * time.Microsecond,
		"SR":  4087500 * time.Microsecond,
		"NSR": 25 * time.Second,
	}
	for _, row := range rows {
		if row.IsolatedRuns != 1 {
			t.Fatalf("class %s: isolated in %d/%d runs", row.Class, row.IsolatedRuns, row.Runs)
		}
		if row.Mean != want[row.Class] {
			t.Errorf("class %s: time to isolation %v, want %v", row.Class, row.Mean, want[row.Class])
		}
	}
}

// TestLightningBoltAlignedPhase reproduces the aerospace row of Table 4:
// P=17, s=1; the 18th faulty round is the 2nd round of the 2nd burst,
// decided at round 84 -> 210 ms (paper: 0.205 s).
func TestLightningBoltAlignedPhase(t *testing.T) {
	res, err := Derive(Aerospace())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TimeToIncorrectIsolation(fault.LightningBolt(), res, 1, serial, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].IsolatedRuns != 1 {
		t.Fatalf("no isolation recorded")
	}
	if want := 210 * time.Millisecond; rows[0].Mean != want {
		t.Errorf("time to isolation %v, want %v", rows[0].Mean, want)
	}
}

// TestRandomPhaseShiftsWithinOneBurstPeriod: with random phases the SC
// isolation time is bimodal. A burst that straddles a round boundary
// corrupts 5 rounds instead of 4, so 5×40 = 200 > 197 already within the
// first burst (isolation ~17.5 ms); an aligned burst needs the first round
// of the second burst (~520 ms). Both modes must stay inside those bounds —
// the same phase artifact the physical injector of the paper exhibits.
func TestRandomPhaseShiftsWithinOneBurstPeriod(t *testing.T) {
	res, err := Derive(Automotive())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TimeToIncorrectIsolationSC(t, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Class != "SC" {
			continue
		}
		if row.IsolatedRuns != row.Runs {
			t.Fatalf("SC isolated in %d/%d runs", row.IsolatedRuns, row.Runs)
		}
		lo := 15 * time.Millisecond
		hi := 600 * time.Millisecond
		if row.Min < lo || row.Max > hi {
			t.Fatalf("SC isolation window [%v, %v] outside [%v, %v]", row.Min, row.Max, lo, hi)
		}
	}
}

// TimeToIncorrectIsolationSC is a small helper to keep the random-phase test
// fast: it truncates the blinking-light scenario to its first three bursts,
// which is enough to isolate the SC node.
func TimeToIncorrectIsolationSC(t *testing.T, res Result) ([]ClassIsolation, error) {
	t.Helper()
	short := fault.Scenario{
		Name: "blinking light (truncated)",
		Phases: []fault.ScenarioPhase{
			{Burst: 10 * time.Millisecond, Reappearance: 500 * time.Millisecond, Count: 3},
		},
	}
	return TimeToIncorrectIsolation(short, res, 5, serial, 11, true)
}

func TestTimeToIncorrectIsolationValidation(t *testing.T) {
	res, err := Derive(Aerospace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TimeToIncorrectIsolation(fault.LightningBolt(), res, 0, serial, 1, false); err == nil {
		t.Fatal("zero runs accepted")
	}
}

// TestComparePolicies reproduces the Sec. 9 availability argument on the
// lightning-bolt scenario: immediate isolation takes the whole system down
// within the first burst, the tuned p/r delays isolation by orders of
// magnitude, and a gently tuned α-count filter rides the scenario out.
func TestComparePolicies(t *testing.T) {
	res, err := Derive(Aerospace())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := ComparePolicies(fault.LightningBolt(), res, 0.95, 200)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyOutcome{}
	for _, o := range outs {
		byName[o.Policy] = o
	}
	imm := byName["immediate isolation"]
	pr := byName["penalty/reward (tuned)"]
	alpha := byName["alpha-count"]

	if !imm.SystemDown {
		t.Fatalf("immediate isolation did not take the system down: %+v", imm)
	}
	if imm.FirstIsolation >= 20*time.Millisecond {
		t.Fatalf("immediate isolation first fired at %v", imm.FirstIsolation)
	}
	if pr.FirstIsolation <= imm.FirstIsolation {
		t.Fatalf("tuned p/r (%v) did not outlast immediate isolation (%v)",
			pr.FirstIsolation, imm.FirstIsolation)
	}
	if alpha.NodesIsolated != 0 {
		t.Fatalf("alpha-count isolated %d nodes with a forgiving threshold", alpha.NodesIsolated)
	}
}
