// Lane-packed batched execution of the Sec. 8 campaigns, the path every
// untraced campaign takes: gangs of ⌊64/N⌋ = 16 repetitions advance together
// through one sim.BatchDiagCluster. Each campaign function here is the
// batched twin of its per-run counterpart in sec8.go and must stay
// draw-identical to it: same named rng streams per absolute run index, same
// disturbances, same horizons, same audits. The per-run path serves traced
// campaigns and is the executable reference: TestBatchedCampaignEquivalence
// pins the rendered rows and metrics byte-exact against it.
package experiments

import (
	"fmt"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// batchDiagWorker is the reusable per-worker state of a batched diagnostic
// campaign: one lane-packed cluster and one stream pool, reset per gang,
// plus the worker's telemetry instruments when the campaign collects
// metrics (reg is nil otherwise and every metrics hook is a no-op).
type batchDiagWorker struct {
	cl      *sim.BatchDiagCluster
	rng     *rng.Pool
	reg     *metrics.Registry
	sm      *core.StepMetrics
	sm0     *core.StepMetrics
	sys     *sim.RunMetrics
	class   string
	scratch []int // per-gang per-lane parameter stash

	// Lane-occupancy instruments (batched path only): how full the 64-bit
	// planes ran. lanes/gangs are totals; occupancy is the high watermark
	// of lanes·N as a percentage of the 64-bit word.
	lanes     *metrics.Counter
	gangs     *metrics.Counter
	occupancy *metrics.Gauge
}

func newBatchDiagWorker(ws *metrics.WorkerSet, class string, src *rng.Source, cfg sim.ClusterConfig) func() (*batchDiagWorker, error) {
	return func() (*batchDiagWorker, error) {
		cl, err := sim.NewBatchDiagCluster(cfg)
		if err != nil {
			return nil, err
		}
		w := &batchDiagWorker{cl: cl, rng: src.NewPool(), class: class}
		if reg := ws.Worker(); reg != nil {
			w.reg = reg
			w.sm = core.NewStepMetrics(reg)
			w.sys = sim.NewRunMetrics(reg)
			w.lanes = reg.Counter("batch/lanes")
			w.gangs = reg.Counter("batch/gangs")
			w.occupancy = reg.Gauge("batch/lane_occupancy_pct")
		}
		return w, nil
	}
}

// begin readies the worker for the gang covering runs base..base+width-1.
// With metrics on, every node's protocol carries the worker's shared
// instruments in every live lane; the lane of run 0 additionally records
// the penalty trajectories on node 1, exactly like the per-run path.
func (w *batchDiagWorker) begin(base, width int) error {
	if err := w.cl.ResetBatch(width); err != nil {
		return err
	}
	w.rng.Recycle()
	n := w.cl.Config().N
	if w.sm != nil {
		for id := 1; id <= n; id++ {
			p := w.cl.Proto(id)
			for lane := 0; lane < width; lane++ {
				p.SetLaneMetrics(lane, w.sm)
			}
		}
		if base == 0 {
			w.cl.Proto(1).SetLaneMetrics(0, w.run0Metrics())
		}
	}
	w.lanes.Add(int64(width))
	w.gangs.Inc()
	w.occupancy.Observe(int64(width * n * 100 / 64))
	w.scratch = w.scratch[:0]
	return nil
}

// run0Metrics builds (once) the StepMetrics variant that also appends the
// per-node penalty trajectories (see diagWorker.run0Metrics).
func (w *batchDiagWorker) run0Metrics() *core.StepMetrics {
	if w.sm0 == nil {
		sm := *w.sm
		n := w.cl.Config().N
		sm.PenaltySeries = make([]*metrics.Series, n+1)
		for j := 1; j <= n; j++ {
			sm.PenaltySeries[j] = w.reg.Series(fmt.Sprintf("%s/penalty/node%d", w.class, j), 256)
		}
		w.sm0 = &sm
	}
	return w.sm0
}

// observeLane folds one completed lane's system-level ground truth into the
// worker's registry; a no-op with metrics off.
func (w *batchDiagWorker) observeLane(lane int) {
	if w.sys == nil {
		return
	}
	w.sys.ObserveTruth(w.cl.LaneTruth(lane))
	w.sys.ObserveIsolationLatency(w.cl.LaneTruth(lane), w.cl.LaneCollector(lane))
}

// burstCampaignBatched is the lane-packed twin of BurstCampaign.
func burstCampaignBatched(p Params) ([]CampaignRow, error) {
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	gang := core.BatchLanes(4)
	var rows []CampaignRow
	for _, slots := range []int{1, 2, 8} {
		for startSlot := 1; startSlot <= 4; startSlot++ {
			slots, startSlot := slots, startSlot
			class := fmt.Sprintf("sec8-bursts/%d-from-%d", slots, startSlot)
			verdicts, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
				newBatchDiagWorker(ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
				func(w *batchDiagWorker, base, width int, out []runVerdict) error {
					if err := w.begin(base, width); err != nil {
						return err
					}
					sched := w.cl.Schedule()
					for lane := 0; lane < width; lane++ {
						stream := w.rng.Stream(fmt.Sprintf("sec8-bursts/%d-from-%d/run-%d", slots, startSlot, base+lane))
						injectRound := 5 + stream.Intn(6)
						w.cl.AddLaneDisturbance(lane, fault.NewTrain(
							fault.SlotBurst(sched, injectRound, startSlot, slots)))
						w.cl.SetLaneHorizon(lane, injectRound+10)
						w.scratch = append(w.scratch, injectRound)
					}
					if err := w.cl.Run(); err != nil {
						return err
					}
					for lane := 0; lane < width; lane++ {
						w.observeLane(lane)
						err := sim.AuditTheorem1(w.cl.LaneTruth(lane), w.cl.LaneCollector(lane),
							[]int{1, 2, 3, 4}, 4, w.scratch[lane]+6)
						if err != nil {
							out[lane] = runVerdict{failure: err.Error()}
						} else {
							out[lane] = runVerdict{pass: true}
						}
					}
					return nil
				})
			if err != nil {
				return nil, err
			}
			rows = append(rows, foldRow(
				fmt.Sprintf("burst %d slot(s) from slot %d", slots, startSlot), verdicts))
		}
	}
	if err := p.recordMetrics("sec8-bursts", ws); err != nil {
		return nil, err
	}
	return rows, nil
}

// prCampaignBatched is the lane-packed twin of PRCampaign. The final
// penalty counters a per-run repetition ends with are read from the
// cluster's at-horizon capture, since longer lanes of the gang keep
// stepping past this lane's horizon.
func prCampaignBatched(p Params) ([]CampaignRow, error) {
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	gang := core.BatchLanes(4)
	verdicts, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
		newBatchDiagWorker(ws, "sec8-pr", src, sim.ClusterConfig{
			Ls: prototypeLs,
			PR: core.PRConfig{PenaltyThreshold: 1 << 30, RewardThreshold: 100},
		}),
		func(w *batchDiagWorker, base, width int, out []runVerdict) error {
			if err := w.begin(base, width); err != nil {
				return err
			}
			sched := w.cl.Schedule()
			for lane := 0; lane < width; lane++ {
				stream := w.rng.Stream(fmt.Sprintf("sec8-pr/run-%d", base+lane))
				startRound := 6 + stream.Intn(4)
				target := 1 + stream.Intn(4)
				var bursts []fault.Burst
				for r := startRound; r < startRound+20; r += 2 {
					bursts = append(bursts, fault.SlotBurst(sched, r, target, 1))
				}
				w.cl.AddLaneDisturbance(lane, fault.NewTrain(bursts...))
				w.cl.SetLaneHorizon(lane, startRound+30)
				w.scratch = append(w.scratch, target)
			}
			if err := w.cl.Run(); err != nil {
				return err
			}
			for lane := 0; lane < width; lane++ {
				w.observeLane(lane)
				v := runVerdict{pass: true}
				for id := 1; id <= 4; id++ {
					if pen := w.cl.LaneFinalPenalty(lane, id, w.scratch[lane]); pen != 10 {
						if v.pass {
							v = runVerdict{failure: fmt.Sprintf("node %d: penalty %d, want 10", id, pen)}
						}
					}
				}
				out[lane] = v
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := p.recordMetrics("sec8-pr", ws); err != nil {
		return nil, err
	}
	return []CampaignRow{foldRow("fault every 2nd round for 20 rounds", verdicts)}, nil
}

// maliciousCampaignBatched is the lane-packed twin of MaliciousCampaign
// (fault.MaliciousSyndrome is receiver-uniform: every receiver observes the
// same corrupted syndrome, drawn once per round and slot).
func maliciousCampaignBatched(p Params) ([]CampaignRow, error) {
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	gang := core.BatchLanes(4)
	var rows []CampaignRow
	for mal := 1; mal <= 4; mal++ {
		mal := mal
		class := fmt.Sprintf("sec8-malicious/node-%d", mal)
		var obedient []int
		for id := 1; id <= 4; id++ {
			if id != mal {
				obedient = append(obedient, id)
			}
		}
		verdicts, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
			newBatchDiagWorker(ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
			func(w *batchDiagWorker, base, width int, out []runVerdict) error {
				if err := w.begin(base, width); err != nil {
					return err
				}
				for lane := 0; lane < width; lane++ {
					w.cl.AddLaneDisturbance(lane, fault.NewMaliciousSyndrome(
						tdma.NodeID(mal), w.rng.Stream(fmt.Sprintf("mal-%d-%d", mal, base+lane))))
					w.cl.SetLaneHorizon(lane, 24)
				}
				if err := w.cl.Run(); err != nil {
					return err
				}
				for lane := 0; lane < width; lane++ {
					w.observeLane(lane)
					col := w.cl.LaneCollector(lane)
					err := sim.AuditTheorem1(w.cl.LaneTruth(lane), col, obedient, 4, 20)
					if err == nil {
						for d := 4; d < 20 && err == nil; d++ {
							if hv := col.ConsHV[d][obedient[0]]; hv.CountFaulty() != 0 {
								err = fmt.Errorf("round %d: conviction %v", d, hv)
							}
						}
					}
					if err != nil {
						out[lane] = runVerdict{failure: err.Error()}
					} else {
						out[lane] = runVerdict{pass: true}
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		rows = append(rows, foldRow(fmt.Sprintf("malicious node %d", mal), verdicts))
	}
	if err := p.recordMetrics("sec8-malicious", ws); err != nil {
		return nil, err
	}
	return rows, nil
}
