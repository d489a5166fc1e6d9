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
// The repetitions run lane-packed: gangs of core.BatchLanes(4) = 16 runs
// advance together on one sim.BatchDiagCluster per campaign worker (see
// campaign.Options). Each run draws its phase from its own named stream, so
// the aggregate is identical at any worker count and gang width.
func TimeToIncorrectIsolation(scen fault.Scenario, res Result, runs int, o campaign.Options, seed int64, randomPhase bool) ([]ClassIsolation, error) {
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
		cl  *sim.BatchDiagCluster
		rng *rng.Pool
	}
	times, err := campaign.RunBatchedWith(o, runs, core.BatchLanes(n), func() (*worker, error) {
		cl, err := sim.NewBatchDiagCluster(sim.ClusterConfig{
			N: n, RoundLen: res.RoundLen, Ls: adverseLs, PR: prCfg,
		})
		if err != nil {
			return nil, err
		}
		return &worker{cl: cl, rng: src.NewPool()}, nil
	}, func(w *worker, base, width int, ts [][]time.Duration) error {
		if err := w.cl.ResetBatch(width); err != nil {
			return err
		}
		w.rng.Recycle()
		for lane := 0; lane < width; lane++ {
			phase := time.Duration(0)
			if randomPhase {
				stream := w.rng.Stream(fmt.Sprintf("adverse-phase/run-%d", base+lane))
				phase = time.Duration(stream.Int63n(int64(res.RoundLen)))
			}
			w.cl.AddLaneDisturbance(lane, scen.Train(phase))
		}
		// The gang horizon doubles until every lane has isolated every
		// class node: a first isolation never moves in later rounds, so
		// stopping early leaves the result as a full-horizon run has it.
		for h := 64; ; h *= 2 {
			if h > maxRounds {
				h = maxRounds
			}
			for lane := 0; lane < width; lane++ {
				w.cl.SetLaneHorizon(lane, h)
			}
			if err := w.cl.Run(); err != nil {
				return err
			}
			if h == maxRounds || allIsolated(w.cl, width, classNodes) {
				break
			}
		}
		for lane := range ts {
			col := w.cl.LaneCollector(lane)
			ts[lane] = make([]time.Duration, classNodes)
			for i := range ts[lane] {
				ts[lane][i] = col.FirstIsolationTime(i+1, w.cl.Schedule())
			}
		}
		return nil
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

// allIsolated reports whether nodes 1..nodes have been isolated in every
// live lane of the gang.
func allIsolated(cl *sim.BatchDiagCluster, lanes, nodes int) bool {
	for lane := 0; lane < lanes; lane++ {
		col := cl.LaneCollector(lane)
		for id := 1; id <= nodes; id++ {
			if col.FirstIsolation(id) < 0 {
				return false
			}
		}
	}
	return true
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

	// Each policy runs the scenario on its own one-lane gang.
	gang := func(prCfg core.PRConfig) (*sim.BatchDiagCluster, error) {
		cl, err := sim.NewOneLaneCluster(sim.ClusterConfig{N: n, RoundLen: res.RoundLen, Ls: adverseLs, PR: prCfg}, maxRounds)
		if err != nil {
			return nil, err
		}
		cl.AddLaneDisturbance(0, scen.Train(0))
		return cl, nil
	}

	runPR := func(name string, prCfg core.PRConfig) (PolicyOutcome, error) {
		cl, err := gang(prCfg)
		if err != nil {
			return PolicyOutcome{}, err
		}
		if err := cl.Run(); err != nil {
			return PolicyOutcome{}, err
		}
		out := PolicyOutcome{Policy: name, FirstIsolation: -1}
		col := cl.LaneCollector(0)
		for id := 1; id <= n; id++ {
			if t := col.FirstIsolationTime(id, cl.Schedule()); t >= 0 {
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
		cl, err := gang(core.PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50})
		if err != nil {
			return PolicyOutcome{}, err
		}
		alpha, err := baseline.NewAlphaCount(n, alphaDecay, alphaThreshold)
		if err != nil {
			return PolicyOutcome{}, err
		}
		out := PolicyOutcome{Policy: "alpha-count", FirstIsolation: -1}
		sched := cl.Schedule()
		// The α-count filter reads node 1's consistent health vectors.
		cl.OnOutput = func(id int, ro *core.BatchRoundOutput) {
			if id != 1 || !ro.Warm {
				return
			}
			iso, err := alpha.Update(ro.LaneConsHV(0, n).Unpack(n))
			if err != nil {
				return
			}
			if len(iso) > 0 && out.FirstIsolation < 0 {
				out.FirstIsolation = sched.RoundStart(ro.Round)
			}
			out.NodesIsolated += len(iso)
		}
		if err := cl.Run(); err != nil {
			return PolicyOutcome{}, err
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
