// Package tuning implements the practical penalty/reward tuning procedures
// of Sec. 9: characterising intermittent faults and setting the reward
// threshold R (Fig. 3), deriving the penalty threshold P and per-class
// criticality levels s_i from tolerated-outage budgets (Table 2), and
// evaluating the tuned algorithm under abnormal transient scenarios
// (Tables 3 and 4), including the comparison against immediate isolation
// and α-count policies.
package tuning

import (
	"fmt"
	"math"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

// PaperRewardThreshold is the reward threshold chosen in Sec. 9 (R = 10^6,
// correlating faults whose inter-arrival time is within R×T ≈ 42 min at
// T = 2.5 ms).
const PaperRewardThreshold = 1_000_000

// CorrelationProbability returns the probability that, after a transient
// fault, a second independent external transient (Poisson with the given
// rate, in events per second) arrives within R rounds of length roundLen —
// i.e. the probability that the p/r algorithm wrongly correlates the two
// (the y-axis of Fig. 3).
func CorrelationProbability(ratePerSecond float64, r int64, roundLen time.Duration) float64 {
	if ratePerSecond <= 0 || r <= 0 {
		return 0
	}
	window := float64(r) * roundLen.Seconds()
	return 1 - math.Exp(-ratePerSecond*window)
}

// CorrelationMonteCarlo estimates the same probability by sampling
// exponential inter-arrival gaps, cross-checking the analytic model.
func CorrelationMonteCarlo(stream *rng.Stream, ratePerSecond float64, r int64, roundLen time.Duration, samples int) float64 {
	if samples <= 0 {
		return 0
	}
	window := float64(r) * roundLen.Seconds()
	hits := 0
	for i := 0; i < samples; i++ {
		if stream.Exp(ratePerSecond) < window {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// Fig3Point is one point of the Fig. 3 trade-off curve.
type Fig3Point struct {
	// R is the reward threshold (x-axis).
	R int64
	// Window is R×T, the correlation window.
	Window time.Duration
	// Prob[i] is the correlation probability for Rates[i] of the sweep.
	Prob []float64
}

// Fig3Sweep evaluates the correlation probability over a grid of reward
// thresholds and external transient rates (per second).
func Fig3Sweep(rs []int64, rates []float64, roundLen time.Duration) []Fig3Point {
	points := make([]Fig3Point, 0, len(rs))
	for _, r := range rs {
		p := Fig3Point{
			R:      r,
			Window: time.Duration(r) * roundLen,
			Prob:   make([]float64, len(rates)),
		}
		for i, rate := range rates {
			p.Prob[i] = CorrelationProbability(rate, r, roundLen)
		}
		points = append(points, p)
	}
	return points
}

// Class is one criticality class of Table 2.
type Class struct {
	// Name is the class label (SC, SR, NSR), Example the representative
	// application.
	Name, Example string
	// Outage is the maximum tolerated transient outage (the paper uses the
	// lower bound of the published ranges for tuning).
	Outage time.Duration
}

// DomainSpec describes one application domain of Table 2.
type DomainSpec struct {
	// Name is the domain label.
	Name string
	// Classes in decreasing criticality.
	Classes []Class
	// RoundLen is the TDMA round length.
	RoundLen time.Duration
	// R is the reward threshold used in the domain.
	R int64
}

// Automotive returns the automotive domain of Table 2: safety critical
// (X-by-wire, 20-50 ms), safety relevant (stability control, 100-200 ms) and
// non safety relevant (door control, 500-1000 ms) classes at T = 2.5 ms.
func Automotive() DomainSpec {
	return DomainSpec{
		Name: "Automotive",
		Classes: []Class{
			{Name: "SC", Example: "X-by-wire", Outage: 20 * time.Millisecond},
			{Name: "SR", Example: "Stability control", Outage: 100 * time.Millisecond},
			{Name: "NSR", Example: "Door control", Outage: 500 * time.Millisecond},
		},
		RoundLen: sim.DefaultRoundLen,
		R:        PaperRewardThreshold,
	}
}

// AutomotiveUpperBound returns the automotive domain tuned against the
// *upper* bounds of the published tolerated-outage ranges (50/200/1000 ms):
// the sensitivity companion to Automotive, showing how the derived
// thresholds scale with the outage budget.
func AutomotiveUpperBound() DomainSpec {
	return DomainSpec{
		Name: "Automotive (upper bounds)",
		Classes: []Class{
			{Name: "SC", Example: "X-by-wire", Outage: 50 * time.Millisecond},
			{Name: "SR", Example: "Stability control", Outage: 200 * time.Millisecond},
			{Name: "NSR", Example: "Door control", Outage: 1000 * time.Millisecond},
		},
		RoundLen: sim.DefaultRoundLen,
		R:        PaperRewardThreshold,
	}
}

// Aerospace returns the aerospace domain of Table 2: only safety critical
// functions (High Lift, Landing Gear, 50 ms) at T = 2.5 ms.
func Aerospace() DomainSpec {
	return DomainSpec{
		Name: "Aerospace",
		Classes: []Class{
			{Name: "SC", Example: "High Lift, Landing Gear", Outage: 50 * time.Millisecond},
		},
		RoundLen: sim.DefaultRoundLen,
		R:        PaperRewardThreshold,
	}
}

// ClassTuning is the tuning outcome for one criticality class.
type ClassTuning struct {
	Class Class
	// Penalty is p_i: the penalty counter value reached when the class's
	// maximum diagnostic latency expires under a continuous faulty burst.
	Penalty int64
	// Criticality is s_i = ceil(P / p_i).
	Criticality int64
}

// Result is the Table 2 outcome for one domain.
type Result struct {
	Domain string
	// PerClass tuning in spec order.
	PerClass []ClassTuning
	// P is the penalty threshold max(p_1..p_k); R the reward threshold.
	P, R int64
	// RoundLen echoes the TDMA round length.
	RoundLen time.Duration
}

// Criticalities returns the 1-based per-node criticality vector that assigns
// class i's level to node i+... — one node per class in order, remaining
// nodes at the lowest derived criticality.
func (r Result) Criticalities(n int) []int64 {
	out := make([]int64, n+1)
	low := int64(1)
	if len(r.PerClass) > 0 {
		low = r.PerClass[len(r.PerClass)-1].Criticality
	}
	for j := 1; j <= n; j++ {
		if j-1 < len(r.PerClass) {
			out[j] = r.PerClass[j-1].Criticality
		} else {
			out[j] = low
		}
	}
	return out
}

// PRConfig assembles the tuned penalty/reward configuration for an n-node
// system (one node per class, in order).
func (r Result) PRConfig(n int) core.PRConfig {
	return core.PRConfig{
		PenaltyThreshold: r.P,
		RewardThreshold:  r.R,
		Criticalities:    r.Criticalities(n),
	}
}

// Derive reproduces the Sec. 9 tuning experiment: inject a continuous faulty
// burst into a cluster running the protocol with unit criticalities, observe
// the penalty counter when each class's tolerated outage expires, and derive
// P = max(p_i) and s_i = ceil(P/p_i).
func Derive(spec DomainSpec) (Result, error) {
	res := Result{Domain: spec.Name, R: spec.R, RoundLen: spec.RoundLen}
	for _, class := range spec.Classes {
		p, err := penaltyAtDeadline(spec.RoundLen, class.Outage)
		if err != nil {
			return Result{}, fmt.Errorf("tuning: class %s: %w", class.Name, err)
		}
		res.PerClass = append(res.PerClass, ClassTuning{Class: class, Penalty: p})
		if p > res.P {
			res.P = p
		}
	}
	for i := range res.PerClass {
		p := res.PerClass[i].Penalty
		if p <= 0 {
			return Result{}, fmt.Errorf("tuning: class %s: tolerated outage %v shorter than the diagnostic latency",
				res.PerClass[i].Class.Name, res.PerClass[i].Class.Outage)
		}
		res.PerClass[i].Criticality = (res.P + p - 1) / p // ceil(P/p)
	}
	return res, nil
}

// penaltyAtDeadline runs a 4-node cluster under a continuous bus burst
// starting at time zero and returns the penalty counter of an affected node
// at the moment the outage budget expires.
func penaltyAtDeadline(roundLen time.Duration, outage time.Duration) (int64, error) {
	cl, err := sim.NewOneLaneCluster(sim.ClusterConfig{
		RoundLen: roundLen,
		// The prototype's unconstrained scheduling: detection latency of
		// k-3 (the paper's add-on deployment).
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50},
	}, 0) // horizon 0: the loop below reads the counter, nothing is recorded
	if err != nil {
		return 0, err
	}
	cl.AddLaneDisturbance(0, fault.NewTrain(fault.Burst{Start: 0, Length: outage + 10*roundLen}))

	var penalty int64
	sched := cl.Schedule()
	for cl.Round() == 0 || sched.RoundStart(cl.Round()) < outage {
		if err := cl.Step(); err != nil {
			return 0, err
		}
		// The counter value "reached when the maximum diagnostic latency was
		// reached" is the one after the last job executing before the
		// deadline.
		jobTime := sched.JobTime(cl.Round()-1, 2) // node 1's job position is 2
		if jobTime < outage {
			// The penalty counter of node 2 at node 1.
			penalty = cl.Proto(1).LanePenalty(0, 2)
		}
	}
	return penalty, nil
}
