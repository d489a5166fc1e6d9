// Wide scale-resilience campaigns: the N = 32 and N = 64 rows of the
// scale-resilience sweep, past the N <= 16 cap the experiment originally
// had. Wide cases pin one internal schedule per fault-mix case (drawn from a
// case-named stream) instead of one per run: the lane-packed batched path
// shares a single schedule across its whole gang, and a fixed case schedule
// is what keeps the per-run and batched paths draw-identical — the same
// contract the Sec. 8 campaigns establish (TestScaleResilienceBatchedEquivalence
// pins it here). Every untraced wide case runs lane-packed: N = 32 in
// two-lane gangs, N = 64 in one-lane gangs, with the asymmetric SOS faults
// carried by the batched bus's blind masks. The per-run body remains as the
// traced path and as the test oracle.
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

// resilienceRunsWide executes the Monte-Carlo campaign of one wide case. The
// schedule is drawn once from the case-named stream; per-run variation comes
// from the malicious payload streams. Unless a trace sink is attached, the
// repetitions advance through a sim.BatchDiagCluster: same draws, same
// audits, same verdicts as the per-run body below.
func resilienceRunsWide(n, a, s, b int, p Params, src *rng.Source) (int, error) {
	scope := fmt.Sprintf("scale/N%d-a%d-s%d-b%d", n, a, s, b)
	sched := src.Stream(scope + "/schedule")
	ls := make([]int, n)
	for i := range ls {
		ls[i] = sched.Intn(n)
	}
	cfg := sim.ClusterConfig{
		N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4, Ls: ls,
	}
	if p.batched() {
		return resilienceRunsWideBatched(scope, n, a, s, b, p, src, cfg)
	}
	failed, err := campaign.RunPooled(p.Workers, p.Runs,
		newDiagWorker(Params{}, nil, "scale", src, cfg),
		func(w *diagWorker, run int) (bool, error) {
			w.cl.Reset()
			w.rng.Recycle()
			w.col.Reset()
			for id := 1; id <= n; id++ {
				w.col.HookDiag(id, w.cl.Runners[id])
			}
			eng := w.cl.Eng
			runScope := fmt.Sprintf("%s/run-%d", scope, run)
			for _, d := range resilienceDisturbances(eng.Schedule(), w.rng, runScope, n, a, s, b) {
				eng.Bus().AddDisturbance(d)
			}
			if err := eng.RunRounds(resilienceFaultRound + 10); err != nil {
				return false, err
			}
			return sim.AuditTheorem1(eng, w.col, resilienceObedient(n, s), 4, resilienceFaultRound+6) != nil, nil
		})
	if err != nil {
		return 0, err
	}
	return countTrue(failed), nil
}

// wideBatchWorker is the reusable per-worker state of a batched wide
// campaign: one lane-packed cluster plus one stream pool.
type wideBatchWorker struct {
	cl  *sim.BatchDiagCluster
	rng *rng.Pool
}

// resilienceRunsWideBatched is the lane-packed path of resilienceRunsWide and
// must stay draw-identical to its per-run body.
func resilienceRunsWideBatched(scope string, n, a, s, b int, p Params, src *rng.Source, cfg sim.ClusterConfig) (int, error) {
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
