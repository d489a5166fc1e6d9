package tuning

import (
	"fmt"
	"time"

	"ttdiag/internal/baseline"
	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/stats"
)

// adverseLs is the unconstrained prototype schedule used for the adverse
// scenario evaluation (same as the tuning runs).
var adverseLs = []int{2, 0, 3, 1}

// ClassIsolation aggregates the time to (incorrect) isolation of the node
// hosting one criticality class over a Monte-Carlo batch (Table 4).
type ClassIsolation struct {
	// Class and Criticality identify the row.
	Class       string
	Criticality int64
	// Runs is the number of experiments, IsolatedRuns how many ended in an
	// isolation within the horizon.
	Runs, IsolatedRuns int
	// Times holds the raw isolation times of the isolated runs.
	Times []time.Duration
	// Summary provides order statistics over Times.
	Summary stats.DurationSummary
	// Mean, Min and Max of the time to isolation over the isolated runs
	// (redundant with Summary, kept for ergonomic access).
	Mean, Min, Max time.Duration
}

// record folds one measured isolation time into the aggregate.
func (c *ClassIsolation) record(t time.Duration) {
	c.IsolatedRuns++
	c.Times = append(c.Times, t)
}

func (c *ClassIsolation) finalise() {
	c.Summary = stats.SummarizeDurations(c.Times)
	c.Mean, c.Min, c.Max = c.Summary.Mean, c.Summary.Min, c.Summary.Max
}

// TimeToIncorrectIsolation reproduces the Table 4 experiment: the abnormal
// transient scenario is injected against a healthy cluster running the
// tuned p/r configuration, and the time until each criticality class's node
// is (incorrectly) isolated is measured. One node hosts each class, in the
// order of the tuning result. When randomPhase is set, each run shifts the
// scenario by a random offset within one round (the physical injector's
// phase uncertainty); otherwise the bursts are aligned to round starts.
//
// The repetitions fan out over a campaign worker pool (workers <= 0 selects
// GOMAXPROCS, 1 is serial); each run draws its phase from its own named
// stream, so the aggregate is identical at any worker count.
func TimeToIncorrectIsolation(scen fault.Scenario, res Result, runs, workers int, seed int64, randomPhase bool) ([]ClassIsolation, error) {
	if runs < 1 {
		return nil, fmt.Errorf("tuning: need at least 1 run, got %d", runs)
	}
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

	// One result per run: the isolation time of each class's node, or -1
	// when it stayed in service for the whole horizon.
	type worker struct {
		cl  *sim.DiagCluster
		rng *rng.Pool
		col *sim.Collector
	}
	times, err := campaign.RunPooled(workers, runs, func() (*worker, error) {
		cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
			N: n, RoundLen: res.RoundLen, Ls: adverseLs, PR: prCfg,
		})
		if err != nil {
			return nil, err
		}
		return &worker{cl: cl, rng: src.NewPool(), col: sim.NewCollector()}, nil
	}, func(w *worker, run int) ([]time.Duration, error) {
		// Reset drops the previous run's disturbances before the pooled
		// streams they hold are recycled and reseeded.
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
	// Fold in run-index order so Times — and every order statistic over
	// them — matches the serial execution exactly.
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

// PolicyOutcome compares fault-filtering policies on one adverse scenario.
type PolicyOutcome struct {
	// Policy names the filtering policy.
	Policy string
	// NodesIsolated is how many of the 4 nodes ended isolated.
	NodesIsolated int
	// FirstIsolation is the time of the first isolation (-1 if none).
	FirstIsolation time.Duration
	// SystemDown reports whether every node was isolated (whole-system
	// restart, the failure mode Sec. 9 attributes to immediate isolation).
	SystemDown bool
}

// ComparePolicies runs the scenario under (a) the tuned p/r algorithm,
// (b) immediate isolation, and (c) an α-count filter, on identical fault
// streams, reproducing the Sec. 9 availability argument.
func ComparePolicies(scen fault.Scenario, res Result, alphaDecay, alphaThreshold float64) ([]PolicyOutcome, error) {
	const n = 4
	horizon := scen.Span() + time.Second
	maxRounds := int(horizon/res.RoundLen) + 8

	runPR := func(name string, prCfg core.PRConfig) (PolicyOutcome, error) {
		eng, runners, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
			N: n, RoundLen: res.RoundLen, Ls: adverseLs, PR: prCfg,
		})
		if err != nil {
			return PolicyOutcome{}, err
		}
		col := sim.NewCollector()
		for id := 1; id <= n; id++ {
			col.HookDiag(id, runners[id])
		}
		eng.Bus().AddDisturbance(scen.Train(0))
		for r := 0; r < maxRounds; r++ {
			if err := eng.RunRound(); err != nil {
				return PolicyOutcome{}, err
			}
		}
		out := PolicyOutcome{Policy: name, FirstIsolation: -1}
		for id := 1; id <= n; id++ {
			if t := col.FirstIsolationTime(id, eng.Schedule()); t >= 0 {
				out.NodesIsolated++
				if out.FirstIsolation < 0 || t < out.FirstIsolation {
					out.FirstIsolation = t
				}
			}
		}
		out.SystemDown = out.NodesIsolated == n
		return out, nil
	}

	runAlpha := func() (PolicyOutcome, error) {
		eng, runners, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
			N: n, RoundLen: res.RoundLen, Ls: adverseLs,
			PR: core.PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
		})
		if err != nil {
			return PolicyOutcome{}, err
		}
		alpha, err := baseline.NewAlphaCount(n, alphaDecay, alphaThreshold)
		if err != nil {
			return PolicyOutcome{}, err
		}
		out := PolicyOutcome{Policy: "alpha-count", FirstIsolation: -1}
		sched := eng.Schedule()
		runners[1].OnOutput = func(ro core.RoundOutput) {
			if ro.ConsHV.Known == 0 {
				return
			}
			iso, err := alpha.Update(ro.ConsHV.Unpack(n))
			if err != nil {
				return
			}
			if len(iso) > 0 && out.FirstIsolation < 0 {
				out.FirstIsolation = sched.RoundStart(ro.Round)
			}
			out.NodesIsolated += len(iso)
		}
		eng.Bus().AddDisturbance(scen.Train(0))
		for r := 0; r < maxRounds; r++ {
			if err := eng.RunRound(); err != nil {
				return PolicyOutcome{}, err
			}
		}
		out.SystemDown = out.NodesIsolated == n
		return out, nil
	}

	var outs []PolicyOutcome
	pr, err := runPR("penalty/reward (tuned)", res.PRConfig(n))
	if err != nil {
		return nil, err
	}
	outs = append(outs, pr)
	imm, err := runPR("immediate isolation", baseline.ImmediatePolicy())
	if err != nil {
		return nil, err
	}
	outs = append(outs, imm)
	al, err := runAlpha()
	if err != nil {
		return nil, err
	}
	outs = append(outs, al)
	return outs, nil
}
