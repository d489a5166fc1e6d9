// Wide scale-resilience campaigns: the N = 32 and N = 64 rows of the
// scale-resilience sweep, past the N <= 16 cap the experiment originally
// had. Wide cases pin one internal schedule per fault-mix case (drawn from a
// case-named stream) instead of one per run, because a lane-packed gang
// shares a single schedule: N = 32 runs in two-lane gangs, N = 64 in
// one-lane gangs, with the asymmetric SOS faults carried by the batched
// bus's blind masks. The per-run body is the test oracle
// (TestScaleResilienceBatchedEquivalence).
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
// round, then a SOS episodes. The narrow (N <= 16) and wide cases share it,
// and the mix is identical on the per-run and the lane-packed path because
// every stream is named by runScope and node.
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

// wideResilienceCase returns one wide case's stream scope and cluster
// configuration, with the case's schedule drawn once from the case-named
// stream.
func wideResilienceCase(n, a, s, b int, src *rng.Source) (string, sim.ClusterConfig) {
	scope := fmt.Sprintf("scale/N%d-a%d-s%d-b%d", n, a, s, b)
	sched := src.Stream(scope + "/schedule")
	ls := make([]int, n)
	for i := range ls {
		ls[i] = sched.Intn(n)
	}
	return scope, sim.ClusterConfig{
		N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4, Ls: ls,
	}
}

// wideBatchWorker is the reusable per-worker state of a batched wide
// campaign: one lane-packed cluster plus one stream pool.
type wideBatchWorker struct {
	cl  *sim.BatchDiagCluster
	rng *rng.Pool
}

// resilienceRunsWide executes the Monte-Carlo campaign of one wide case as
// lane-packed gangs and returns how many runs violated a Theorem 1 audit.
// The schedule is fixed per case; per-run variation comes from the
// malicious payload streams, named by the absolute run index. The cluster
// carries no trace sink, so a traced sweep records nothing here.
func resilienceRunsWide(n, a, s, b int, p Params, src *rng.Source) (int, error) {
	scope, cfg := wideResilienceCase(n, a, s, b, src)
	gang := core.BatchLanes(n)
	obedient := resilienceObedient(n, s)
	failed, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
		func() (*wideBatchWorker, error) {
			cl, err := sim.NewBatchDiagCluster(cfg)
			if err != nil {
				return nil, err
			}
			return &wideBatchWorker{cl: cl, rng: src.NewPool()}, nil
		},
		func(w *wideBatchWorker, base, width int, out []bool) error {
			if err := w.cl.ResetBatch(width); err != nil {
				return err
			}
			w.rng.Recycle()
			for lane := 0; lane < width; lane++ {
				runScope := fmt.Sprintf("%s/run-%d", scope, base+lane)
				for _, d := range resilienceDisturbances(w.cl.Schedule(), w.rng, runScope, n, a, s, b) {
					w.cl.AddLaneDisturbance(lane, d)
				}
				w.cl.SetLaneHorizon(lane, resilienceFaultRound+10)
			}
			if err := w.cl.Run(); err != nil {
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
