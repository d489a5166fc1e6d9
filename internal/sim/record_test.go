package sim

import (
	"slices"
	"testing"

	"ttdiag/internal/fault"
	"ttdiag/internal/tdma"
)

// TestGangRecordStaggeredHorizons pins the lane views of the gang record
// under staggered horizons: a 16-lane N=4 gang whose lanes stop at
// different rounds (lane 0 at horizon 0, some lanes before the first cut,
// the rest after it) runs to a cut, has the horizons of the lanes it
// stopped at raised, and runs on. Every lane's Round, Truth, HV and
// decisions must equal a per-run engine run to that lane's horizon, for
// every round the gang recorded, so a lane reads nothing of the rounds
// other lanes recorded past its horizon.
func TestGangRecordStaggeredHorizons(t *testing.T) {
	const cut = 9
	for _, name := range []string{"sos", "bursts_reintegrate"} {
		sc := batchScenarioNamed(t, name)
		t.Run(name, func(t *testing.T) {
			bc, err := NewBatchDiagCluster(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := bc.Config().N
			horizons := make([]int, bc.Lanes())
			for lane := range horizons {
				lane := lane
				h := sc.attach(lane, bc.Schedule(), func(d tdma.Disturbance) { bc.AddLaneDisturbance(lane, d) })
				switch {
				case lane == 0:
					h = 0
				case lane < 4:
					h = 3 * lane // inside the first Run
				default:
					h += lane % 5
				}
				horizons[lane] = h
				bc.SetLaneHorizon(lane, min(h, cut))
			}
			if err := bc.Run(); err != nil {
				t.Fatal(err)
			}
			if bc.Round() != cut {
				t.Fatalf("first Run stopped at round %d, want %d", bc.Round(), cut)
			}
			maxH := 0
			for lane, h := range horizons {
				bc.SetLaneHorizon(lane, h)
				maxH = max(maxH, h)
			}
			if err := bc.Run(); err != nil {
				t.Fatal(err)
			}
			for lane, h := range horizons {
				eng, col := perRunToHorizon(t, sc, lane, h)
				lt := bc.LaneTruth(lane)
				if lt.Round() != eng.Round() {
					t.Fatalf("lane %d: %d recorded rounds, engine executed %d", lane, lt.Round(), eng.Round())
				}
				for r := 0; r <= maxH; r++ {
					if got, want := lt.Truth(r), eng.Truth(r); !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("lane %d round %d truth %v, want %v", lane, r, got, want)
					}
				}
				if diff := collectorDiff(bc.LaneCollector(lane), col, n, maxH+1); diff != "" {
					t.Fatalf("lane %d (horizon %d): %s", lane, h, diff)
				}
			}
		})
	}
}

// perRunToHorizon runs repetition `run` of a scenario on the per-run engine
// for `rounds` rounds and returns the engine and its collector.
func perRunToHorizon(t *testing.T, sc batchScenario, run, rounds int) (*Engine, *Collector) {
	t.Helper()
	eng, runners, err := NewDiagnosticCluster(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	for id := 1; id < len(runners); id++ {
		col.HookDiag(id, runners[id])
	}
	sc.attach(run, eng.Schedule(), func(d tdma.Disturbance) { eng.Bus().AddDisturbance(d) })
	if err := eng.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	return eng, col
}

// TestGangRecordStaysEmptyAtHorizonZero pins that a gang whose lanes all
// step at horizon 0, as the splitting estimator's do, records nothing: its
// record stays empty however long it runs, loud lanes included.
func TestGangRecordStaysEmptyAtHorizonZero(t *testing.T) {
	bc, err := NewBatchDiagCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < bc.Lanes(); lane++ {
		bc.AddLaneDisturbance(lane, fault.Crash(tdma.NodeID(1+lane%4), 5+lane))
	}
	for k := 0; k < 10000; k++ {
		if err := bc.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(bc.rec.words) != 0 {
		t.Fatalf("gang record of %d words after %d rounds at horizon 0", len(bc.rec.words), bc.Round())
	}
	for lane := 0; lane < bc.Lanes(); lane++ {
		col := bc.LaneCollector(lane)
		if got := bc.LaneTruth(lane).Round(); got != 0 || len(col.Isolations) != 0 || col.HV(20, 1).Known != 0 {
			t.Fatalf("lane %d recorded %d rounds, %d isolations at horizon 0", lane, got, len(col.Isolations))
		}
	}
}
