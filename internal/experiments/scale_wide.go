// Scale-resilience campaigns on the gang: every row of the sweep, N = 4 to
// N = 64, runs through one sim.BatchDiagCluster body. Narrow cases
// (N <= 16, the experiment's original range) draw a fresh internal schedule
// for every run and so run as one-lane gangs re-pinned per run by ResetLs.
// Wide cases (N = 32 and N = 64) pin one schedule per fault-mix case, drawn
// from a case-named stream, because a lane-packed gang shares a single
// schedule: N = 32 runs in two-lane gangs, N = 64 in one-lane gangs. The
// asymmetric SOS faults ride the batched bus's blind masks. The per-run
// body is the test oracle (TestScaleResilienceBatchedEquivalence).
package experiments

import (
	"fmt"
	"time"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// resilienceFaultRound is the injection round of every scale-resilience case.
const resilienceFaultRound = 8

// resilienceDisturbances builds the coincident-fault mix of one repetition
// in role order: s malicious syndrome sources (each with its own lazily
// drawn payload stream), then b single-slot benign bursts in the fault
// round, then a SOS episodes. The mix is identical on the per-run and the
// lane-packed path because every stream is named by runScope and node.
func resilienceDisturbances(sched *tdma.Schedule, pool *rng.Pool, runScope string, n, a, s, b int) []tdma.Disturbance {
	var ds []tdma.Disturbance
	node := 1
	for i := 0; i < s; i++ {
		ds = append(ds, fault.NewMaliciousSyndrome(
			tdma.NodeID(node), pool.Stream(fmt.Sprintf("%s/mal-%d", runScope, node))))
		node++
	}
	var bursts []fault.Burst
	for i := 0; i < b; i++ {
		bursts = append(bursts, fault.SlotBurst(sched, resilienceFaultRound, node, 1))
		node++
	}
	if len(bursts) > 0 {
		ds = append(ds, fault.NewTrain(bursts...))
	}
	for i := 0; i < a; i++ {
		ds = append(ds, fault.SOS{
			Sender: tdma.NodeID(node), Victims: []tdma.NodeID{tdma.NodeID((node % n) + 1)},
			FromRound: resilienceFaultRound, ToRound: resilienceFaultRound + 1,
		})
		node++
	}
	return ds
}

// resilienceObedient lists the trustworthy observers of a scale-resilience
// case: every node that is not one of the s malicious sources (nodes 1..s).
func resilienceObedient(n, s int) []int {
	obedient := make([]int, 0, n-s)
	for id := s + 1; id <= n; id++ {
		obedient = append(obedient, id)
	}
	return obedient
}

// resilienceRuns executes the Monte-Carlo campaign of one scale-resilience
// case as lane-packed gangs and returns how many runs violated a Theorem 1
// audit. Every run's streams are named by the case and its absolute run
// index, so the count does not depend on the worker count. A wide case
// (N > 16) pins one schedule, drawn from a case-named stream, and fills
// ⌊64/N⌋ lanes per gang; per-run variation comes from the malicious payload
// streams. A narrow case draws every run's schedule from the run's own
// stream, which a gang cannot share, so it runs in one-lane gangs that
// ResetLs re-pins. The sweep records neither trace nor metrics.
func resilienceRuns(n, a, s, b int, p Params, src *rng.Source) (int, error) {
	p.Trace = nil
	scope := fmt.Sprintf("scale/N%d-a%d-s%d-b%d", n, a, s, b)
	cfg := sim.ClusterConfig{N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4}
	wide := n > 16
	gang := 1
	if wide {
		cfg.Ls = drawLs(src.Stream(scope+"/schedule"), n)
		gang = core.BatchLanes(n)
	}
	obedient := resilienceObedient(n, s)
	failed, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
		newBatchDiagWorker(p, nil, scope, src, cfg),
		func(w *batchDiagWorker, base, width int, out []bool) error {
			if err := w.begin(base, width); err != nil {
				return err
			}
			if !wide {
				if err := w.cl.ResetLs(drawLs(w.rng.Stream(fmt.Sprintf("%s/run-%d", scope, base)), n)); err != nil {
					return err
				}
			}
			for lane := 0; lane < width; lane++ {
				runScope := fmt.Sprintf("%s/run-%d", scope, base+lane)
				for _, d := range resilienceDisturbances(w.cl.Schedule(), w.rng, runScope, n, a, s, b) {
					w.cl.AddLaneDisturbance(lane, d)
				}
				w.cl.SetLaneHorizon(lane, resilienceFaultRound+10)
			}
			if err := w.run(p, base, width); err != nil {
				return err
			}
			for lane := 0; lane < width; lane++ {
				out[lane] = sim.AuditTheorem1(w.cl.LaneTruth(lane), w.cl.LaneCollector(lane),
					obedient, 4, resilienceFaultRound+6) != nil
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	return countTrue(failed), nil
}

// drawLs draws an n-node internal schedule, one job position per node.
func drawLs(st *rng.Stream, n int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = st.Intn(n)
	}
	return ls
}

// countTrue counts the set entries of a verdict list.
func countTrue(vs []bool) int {
	count := 0
	for _, v := range vs {
		if v {
			count++
		}
	}
	return count
}
