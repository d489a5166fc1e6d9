package tuning

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ttdiag/internal/campaign"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

// serial runs a campaign on the calling goroutine.
var serial = campaign.Options{Workers: 1}

// timeToIncorrectIsolationPerRun is the per-run test oracle of
// TimeToIncorrectIsolation: every repetition steps its own reusable
// sim.DiagCluster round by round and stops at the round in which the last
// class node is isolated.
func timeToIncorrectIsolationPerRun(scen fault.Scenario, res Result, runs, workers int, seed int64, randomPhase bool) ([]ClassIsolation, error) {
	const n = 4
	prCfg := res.PRConfig(n)
	src := rng.NewSource(seed)

	out := make([]ClassIsolation, len(res.PerClass))
	for i, ct := range res.PerClass {
		out[i] = ClassIsolation{Class: ct.Class.Name, Criticality: ct.Criticality, Runs: runs}
	}

	horizon := scen.Span() + time.Second
	maxRounds := int(horizon/res.RoundLen) + 8
	classNodes := len(res.PerClass)

	type worker struct {
		cl  *sim.DiagCluster
		rng *rng.Pool
		col *sim.Collector
	}
	times, err := campaign.RunPooledWith(campaign.Options{Workers: workers}, runs, func() (*worker, error) {
		cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
			N: n, RoundLen: res.RoundLen, Ls: adverseLs, PR: prCfg,
		})
		if err != nil {
			return nil, err
		}
		return &worker{cl: cl, rng: src.NewPool(), col: sim.NewCollector()}, nil
	}, func(w *worker, run int) ([]time.Duration, error) {
		w.cl.Reset()
		w.rng.Recycle()
		w.col.Reset()
		phase := time.Duration(0)
		if randomPhase {
			stream := w.rng.Stream(fmt.Sprintf("adverse-phase/run-%d", run))
			phase = time.Duration(stream.Int63n(int64(res.RoundLen)))
		}
		eng, runners := w.cl.Eng, w.cl.Runners
		col := w.col
		for id := 1; id <= n; id++ {
			col.HookDiag(id, runners[id])
		}
		eng.Bus().AddDisturbance(scen.Train(phase))

		for r := 0; r < maxRounds; r++ {
			if err := eng.RunRound(); err != nil {
				return nil, err
			}
			isolatedAll := true
			for id := 1; id <= classNodes; id++ {
				if col.FirstIsolation(id) < 0 {
					isolatedAll = false
					break
				}
			}
			if isolatedAll {
				break
			}
		}
		ts := make([]time.Duration, classNodes)
		for i := range ts {
			ts[i] = col.FirstIsolationTime(i+1, eng.Schedule())
		}
		return ts, nil
	})
	if err != nil {
		return nil, err
	}
	for _, ts := range times {
		for i, t := range ts {
			if t >= 0 {
				out[i].record(t)
			}
		}
	}
	for i := range out {
		out[i].finalise()
	}
	return out, nil
}

// TestTimeToIncorrectIsolationMatchesPerRun pins the lane-packed Table 4
// body to the per-run oracle: every ClassIsolation field, Times in run
// order included, for both scenarios, both phase modes, full and ragged
// gangs, and one and several workers. The automotive scenario is truncated
// to its first bursts (its NSR node needs 25 s of bus time), which still
// leaves SR and NSR unisolated at the horizon and so exercises the gang
// running to maxRounds.
func TestTimeToIncorrectIsolationMatchesPerRun(t *testing.T) {
	auto, err := Derive(Automotive())
	if err != nil {
		t.Fatal(err)
	}
	aero, err := Derive(Aerospace())
	if err != nil {
		t.Fatal(err)
	}
	blinking := fault.Scenario{
		Name: "blinking light (truncated)",
		Phases: []fault.ScenarioPhase{
			{Burst: 10 * time.Millisecond, Reappearance: 500 * time.Millisecond, Count: 3},
		},
	}
	cases := []struct {
		name string
		scen fault.Scenario
		res  Result
	}{
		{"blinking-light", blinking, auto},
		{"lightning-bolt", fault.LightningBolt(), aero},
	}
	for _, tc := range cases {
		for _, randomPhase := range []bool{false, true} {
			for _, runs := range []int{1, 5, 21} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/random=%v/runs=%d/workers=%d", tc.name, randomPhase, runs, workers)
					t.Run(name, func(t *testing.T) {
						o := campaign.Options{Workers: workers}
						got, err := TimeToIncorrectIsolation(tc.scen, tc.res, runs, o, 7, randomPhase)
						if err != nil {
							t.Fatal(err)
						}
						want, err := timeToIncorrectIsolationPerRun(tc.scen, tc.res, runs, 1, 7, randomPhase)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("gang body diverges from the per-run oracle:\n got %+v\nwant %+v", got, want)
						}
						if tc.name == "blinking-light" && got[len(got)-1].IsolatedRuns != 0 {
							t.Fatalf("truncated scenario isolated %s: the maxRounds path goes untested", got[len(got)-1].Class)
						}
					})
				}
			}
		}
	}
}
