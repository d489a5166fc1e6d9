// Lane-packed execution of the Sec. 8 campaigns (bursts, p/r, malicious,
// and the membership-mode clique class): gangs of ⌊64/N⌋ = 16 repetitions
// advance together through one sim.BatchDiagCluster, traced or not. Every
// repetition draws from named rng streams keyed by its absolute run index,
// so the result does not depend on which lane or gang runs it. A traced
// gang flushes each lane's recording after the lane's run-boundary note, in
// run order, so the stream is what a per-run execution records. The per-run
// bodies are the test oracle: TestBatchedCampaignEquivalence pins the
// rendered rows and metrics, and TestTracedCampaignEquivalence the JSONL
// trace, byte-exact against them.
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

// batchDiagWorker is the reusable per-worker state of every campaign gang
// (the Sec. 8 classes and the scale-resilience sweep): one lane-packed
// cluster and one stream pool, reset per gang, plus the worker's telemetry
// instruments when the campaign collects metrics (reg is nil otherwise and
// every metrics hook is a no-op).
type batchDiagWorker struct {
	cl      *sim.BatchDiagCluster
	rng     *rng.Pool
	reg     *metrics.Registry
	sm      *core.StepMetrics
	sys     *sim.RunMetrics
	class   string // series-name prefix and trace note of this campaign class
	scratch []int  // per-gang per-lane parameter stash

	// Lane-occupancy instruments (batched path only): how full the 64-bit
	// planes ran. lanes/gangs are totals; occupancy is the high watermark
	// of lanes·N as a percentage of the 64-bit word.
	lanes     *metrics.Counter
	gangs     *metrics.Counter
	occupancy *metrics.Gauge
}

func newBatchDiagWorker(p Params, ws *metrics.WorkerSet, class string, src *rng.Source, cfg sim.ClusterConfig) func() (*batchDiagWorker, error) {
	return func() (*batchDiagWorker, error) {
		cfg.Sink = p.Trace
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
// the penalty trajectories on node 1.
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
			w.cl.Proto(1).SetLaneMetrics(0, run0Metrics(w.reg, w.sm, w.class, n))
		}
	}
	w.lanes.Add(int64(width))
	w.gangs.Inc()
	w.occupancy.Observe(int64(width * n * 100 / 64))
	w.scratch = w.scratch[:0]
	return nil
}

// run executes the gang of runs base..base+width-1 and, when the campaign
// is traced, writes each lane's recording to the sink in run order, after
// the run's boundary note.
func (w *batchDiagWorker) run(p Params, base, width int) error {
	if err := w.cl.Run(); err != nil {
		return err
	}
	if p.Trace != nil {
		for lane := 0; lane < width; lane++ {
			p.traceRun(w.class, base+lane)
			w.cl.FlushLaneTrace(lane)
		}
	}
	return nil
}

// observeLane folds one completed lane's system-level ground truth and, in
// membership mode, every node's view changes into the worker's registry; a
// no-op with metrics off.
func (w *batchDiagWorker) observeLane(lane int) {
	if w.sys == nil {
		return
	}
	w.sys.ObserveTruth(w.cl.LaneTruth(lane))
	w.sys.ObserveIsolationLatency(w.cl.LaneTruth(lane), w.cl.LaneCollector(lane))
	if cfg := w.cl.Config(); cfg.Mode == core.ModeMembership {
		for id := 1; id <= cfg.N; id++ {
			w.sys.ViewChanges.Add(int64(w.cl.LaneView(lane, id).ID))
		}
	}
}

// BurstCampaign runs the twelve burst experiment classes: bursts of one
// slot, two slots and two whole TDMA rounds, starting at each of the four
// sending slots. Every repetition shifts the injection round, and every run
// is audited for Theorem 1's correctness, completeness and consistency.
func BurstCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	gang := core.BatchLanes(4)
	var rows []CampaignRow
	for _, slots := range []int{1, 2, 8} {
		for startSlot := 1; startSlot <= 4; startSlot++ {
			slots, startSlot := slots, startSlot
			class := fmt.Sprintf("sec8-bursts/%d-from-%d", slots, startSlot)
			verdicts, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
				newBatchDiagWorker(p, ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
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
					if err := w.run(p, base, width); err != nil {
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

// PRCampaign reproduces the p/r validation class: a fault in one node's
// sending slot every second round for 20 rounds; either the penalty or the
// reward counter must advance every round, identically at every node. The
// final penalty counters a repetition ends with are read from the cluster's
// at-horizon capture, since longer lanes of the gang keep stepping past
// this lane's horizon.
func PRCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	gang := core.BatchLanes(4)
	verdicts, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
		newBatchDiagWorker(p, ws, "sec8-pr", src, sim.ClusterConfig{
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
			if err := w.run(p, base, width); err != nil {
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

// MaliciousCampaign runs the four malicious-node classes: each node in turn
// broadcasts random local syndromes; the obedient nodes must never diagnose
// a correct node as faulty and must stay consistent. fault.MaliciousSyndrome
// is receiver-uniform (every receiver observes the same corrupted syndrome,
// drawn once per round and slot), so it runs on the shared lane planes.
func MaliciousCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
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
			newBatchDiagWorker(p, ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
			func(w *batchDiagWorker, base, width int, out []runVerdict) error {
				if err := w.begin(base, width); err != nil {
					return err
				}
				for lane := 0; lane < width; lane++ {
					w.cl.AddLaneDisturbance(lane, fault.NewMaliciousSyndrome(
						tdma.NodeID(mal), w.rng.Stream(fmt.Sprintf("mal-%d-%d", mal, base+lane))))
					w.cl.SetLaneHorizon(lane, 24)
				}
				if err := w.run(p, base, width); err != nil {
					return err
				}
				for lane := 0; lane < width; lane++ {
					w.observeLane(lane)
					col := w.cl.LaneCollector(lane)
					err := sim.AuditTheorem1(w.cl.LaneTruth(lane), col, obedient, 4, 20)
					if err == nil {
						for d := 4; d < 20 && err == nil; d++ {
							if hv := col.HV(d, obedient[0]); hv.CountFaulty(4) != 0 {
								err = fmt.Errorf("round %d: conviction %s", d, hv.String(4))
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

// CliqueCampaign reproduces the membership validation: the disturbance node
// sits between node 1 and the rest of the cluster, so node 1 misses another
// node's broadcast and forms a minority clique; every obedient node must
// install the view {2,3,4} in the same round, within two protocol
// executions. The gang runs in membership mode, each lane's views read at
// its horizon.
func CliqueCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	gang := core.BatchLanes(4)
	verdicts, err := campaign.RunBatchedWith(p.campaignOpts(), p.Runs, gang,
		newBatchDiagWorker(p, ws, "sec8-clique", src, sim.ClusterConfig{Ls: prototypeLs, Mode: core.ModeMembership}),
		func(w *batchDiagWorker, base, width int, out []runVerdict) error {
			if err := w.begin(base, width); err != nil {
				return err
			}
			for lane := 0; lane < width; lane++ {
				stream := w.rng.Stream(fmt.Sprintf("sec8-clique/run-%d", base+lane))
				faultRound := 6 + stream.Intn(6)
				missedSender := tdma.NodeID(2 + stream.Intn(3))
				w.cl.AddLaneDisturbance(lane, fault.ReceiverBlind{
					Receiver: 1, Senders: []tdma.NodeID{missedSender},
					FromRound: faultRound, ToRound: faultRound + 1,
				})
				w.cl.SetLaneHorizon(lane, faultRound+14)
				w.scratch = append(w.scratch, faultRound)
			}
			if err := w.run(p, base, width); err != nil {
				return err
			}
			lag := w.cl.Proto(1).Config().Lag()
			for lane := 0; lane < width; lane++ {
				w.observeLane(lane)
				out[lane] = cliqueVerdict(w.cl, lane, w.scratch[lane], lag)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := p.recordMetrics("sec8-clique", ws); err != nil {
		return nil, err
	}
	return []CampaignRow{foldRow("minority clique {1} via asymmetric receive fault", verdicts)}, nil
}

// cliqueVerdict audits one clique lane: every node holds the view {2,3,4},
// agrees with node 1 on its ID and formation round, and formed it within
// two protocol executions of the fault.
func cliqueVerdict(cl *sim.BatchDiagCluster, lane, faultRound, lag int) runVerdict {
	ref := cl.LaneView(lane, 1)
	for id := 1; id <= 4; id++ {
		v := cl.LaneView(lane, id)
		if fmt.Sprint(v.Members) != "[2 3 4]" {
			return runVerdict{failure: fmt.Sprintf("node %d view %v", id, v.Members)}
		}
		if v.FormedAtRound != ref.FormedAtRound || v.ID != ref.ID {
			return runVerdict{failure: fmt.Sprintf("node %d view disagrees with node 1", id)}
		}
		if v.FormedAtRound > faultRound+2*(lag+1) {
			return runVerdict{failure: fmt.Sprintf("view formed at %d, fault at %d (liveness)", v.FormedAtRound, faultRound)}
		}
	}
	return runVerdict{pass: true}
}
