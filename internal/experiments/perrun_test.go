package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// This file holds the per-run oracles of the lane-packed campaigns: each
// repetition runs on its own lock-step engine (a reused sim.DiagCluster, or
// a fresh membership cluster for sec8-clique), drawing the same named
// streams, attaching the same disturbances and running the same audits as
// the gang body. With a trace sink, the per-run engine records the
// repetition and p.traceRun its boundary note.

// perRunWorker is the per-worker state of the per-run diagnostic oracles:
// one reused cluster, one stream pool and one collector, reset/recycled
// per repetition, plus the worker's telemetry instruments when the
// campaign collects metrics (reg is nil otherwise and every metrics hook is
// a no-op).
type perRunWorker struct {
	cl    *sim.DiagCluster
	rng   *rng.Pool
	col   *sim.Collector
	reg   *metrics.Registry
	sm    *core.StepMetrics
	sys   *sim.RunMetrics
	class string
}

func newPerRunWorker(p Params, ws *metrics.WorkerSet, class string, src *rng.Source, cfg sim.ClusterConfig) func() (*perRunWorker, error) {
	return func() (*perRunWorker, error) {
		cfg.Sink = p.Trace
		cl, err := sim.NewReusableDiagnosticCluster(cfg)
		if err != nil {
			return nil, err
		}
		w := &perRunWorker{cl: cl, rng: src.NewPool(), col: sim.NewCollector(), class: class}
		if reg := ws.Worker(); reg != nil {
			w.reg = reg
			w.sm = core.NewStepMetrics(reg)
			w.sys = sim.NewRunMetrics(reg)
		}
		return w, nil
	}
}

// begin readies the worker for repetition run. With metrics on, every
// protocol gets the worker's shared instruments, and run 0's node-1 observer
// also records the penalty trajectories.
func (w *perRunWorker) begin(run int) (*sim.Engine, []*sim.DiagRunner) {
	w.cl.Reset()
	w.rng.Recycle()
	w.col.Reset()
	if w.sm != nil {
		for id := 1; id < len(w.cl.Runners); id++ {
			w.cl.Runners[id].Protocol().SetMetrics(w.sm)
		}
		if run == 0 {
			w.cl.Runners[1].Protocol().SetMetrics(run0Metrics(w.reg, w.sm, w.class, len(w.cl.Runners)-1))
		}
	}
	return w.cl.Eng, w.cl.Runners
}

// observe folds the completed repetition's system-level ground truth into
// the worker's registry; a no-op with metrics off.
func (w *perRunWorker) observe(eng *sim.Engine) {
	if w.sys == nil {
		return
	}
	w.sys.ObserveTruth(eng)
	w.sys.ObserveIsolationLatency(eng, w.col)
}

// perRunCampaigns maps each lane-packed Sec. 8 campaign to its oracle.
var perRunCampaigns = map[string]func(Params) ([]CampaignRow, error){
	"sec8-bursts":    burstCampaignPerRun,
	"sec8-pr":        prCampaignPerRun,
	"sec8-malicious": maliciousCampaignPerRun,
	"sec8-clique":    cliqueCampaignPerRun,
}

// runPerRun renders one Sec. 8 campaign through its per-run oracle, framed
// exactly like Run, and collects its metrics report (see runCampaign).
func runPerRun(t *testing.T, id string, p Params) (string, metrics.Snapshot) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.NewReport("test", p.Seed, p.Runs)
	var out bytes.Buffer
	p.Out = &out
	p.Metrics = rep
	fmt.Fprintf(&out, "==> %s — %s (%s)\n\n", e.ID, e.Title, e.Ref)
	rows, err := perRunCampaigns[id](p)
	if err != nil {
		t.Fatal(err)
	}
	if err := renderCampaign(p, rows); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out)
	return out.String(), rep.Snapshot(id)
}

// burstCampaignPerRun is the per-run oracle of BurstCampaign.
func burstCampaignPerRun(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	var rows []CampaignRow
	for _, slots := range []int{1, 2, 8} {
		for startSlot := 1; startSlot <= 4; startSlot++ {
			slots, startSlot := slots, startSlot
			class := fmt.Sprintf("sec8-bursts/%d-from-%d", slots, startSlot)
			verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
				newPerRunWorker(p, ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
				func(w *perRunWorker, run int) (runVerdict, error) {
					eng, runners := w.begin(run)
					p.traceRun(class, run)
					stream := w.rng.Stream(fmt.Sprintf("sec8-bursts/%d-from-%d/run-%d", slots, startSlot, run))
					injectRound := 5 + stream.Intn(6)
					col := w.col
					for id := 1; id <= 4; id++ {
						col.HookDiag(id, runners[id])
					}
					eng.Bus().AddDisturbance(fault.NewTrain(
						fault.SlotBurst(eng.Schedule(), injectRound, startSlot, slots)))
					if err := eng.RunRounds(injectRound + 10); err != nil {
						return runVerdict{}, err
					}
					w.observe(eng)
					if err := sim.AuditTheorem1(eng, col, []int{1, 2, 3, 4}, 4, injectRound+6); err != nil {
						return runVerdict{failure: err.Error()}, nil
					}
					return runVerdict{pass: true}, nil
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

// prCampaignPerRun is the per-run oracle of PRCampaign.
func prCampaignPerRun(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
		newPerRunWorker(p, ws, "sec8-pr", src, sim.ClusterConfig{
			Ls: prototypeLs,
			PR: core.PRConfig{PenaltyThreshold: 1 << 30, RewardThreshold: 100},
		}),
		func(w *perRunWorker, run int) (runVerdict, error) {
			eng, runners := w.begin(run)
			p.traceRun("sec8-pr", run)
			stream := w.rng.Stream(fmt.Sprintf("sec8-pr/run-%d", run))
			startRound := 6 + stream.Intn(4)
			target := 1 + stream.Intn(4)
			var bursts []fault.Burst
			for r := startRound; r < startRound+20; r += 2 {
				bursts = append(bursts, fault.SlotBurst(eng.Schedule(), r, target, 1))
			}
			eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
			if err := eng.RunRounds(startRound + 30); err != nil {
				return runVerdict{}, err
			}
			w.observe(eng)
			v := runVerdict{pass: true}
			for id := 1; id <= 4; id++ {
				pr := runners[id].Protocol().PenaltyReward()
				if pr.Penalty(target) != 10 {
					if v.pass {
						v = runVerdict{failure: fmt.Sprintf("node %d: penalty %d, want 10", id, pr.Penalty(target))}
					}
				}
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}
	if err := p.recordMetrics("sec8-pr", ws); err != nil {
		return nil, err
	}
	return []CampaignRow{foldRow("fault every 2nd round for 20 rounds", verdicts)}, nil
}

// maliciousCampaignPerRun is the per-run oracle of MaliciousCampaign.
func maliciousCampaignPerRun(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	var rows []CampaignRow
	for mal := 1; mal <= 4; mal++ {
		mal := mal
		class := fmt.Sprintf("sec8-malicious/node-%d", mal)
		verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
			newPerRunWorker(p, ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
			func(w *perRunWorker, run int) (runVerdict, error) {
				eng, runners := w.begin(run)
				p.traceRun(class, run)
				col := w.col
				for id := 1; id <= 4; id++ {
					col.HookDiag(id, runners[id])
				}
				eng.Bus().AddDisturbance(fault.NewMaliciousSyndrome(
					tdma.NodeID(mal), w.rng.Stream(fmt.Sprintf("mal-%d-%d", mal, run))))
				if err := eng.RunRounds(24); err != nil {
					return runVerdict{}, err
				}
				w.observe(eng)
				var obedient []int
				for id := 1; id <= 4; id++ {
					if id != mal {
						obedient = append(obedient, id)
					}
				}
				err := sim.AuditTheorem1(eng, col, obedient, 4, 20)
				if err == nil {
					for d := 4; d < 20 && err == nil; d++ {
						if hv := col.HV(d, obedient[0]); hv.CountFaulty(4) != 0 {
							err = fmt.Errorf("round %d: conviction %s", d, hv.String(4))
						}
					}
				}
				if err != nil {
					return runVerdict{failure: err.Error()}, nil
				}
				return runVerdict{pass: true}, nil
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

// cliqueCampaignPerRun is the per-run oracle of CliqueCampaign: one fresh
// membership cluster per repetition, with the worker's telemetry attached
// to every node and run 0's node-1 observer recording the penalty
// trajectories.
func cliqueCampaignPerRun(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	type memWorker struct {
		rng *rng.Pool
		reg *metrics.Registry
		sm  *core.StepMetrics
		sys *sim.RunMetrics
	}
	verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
		func() (*memWorker, error) {
			w := &memWorker{rng: src.NewPool()}
			if reg := ws.Worker(); reg != nil {
				w.reg = reg
				w.sm = core.NewStepMetrics(reg)
				w.sys = sim.NewRunMetrics(reg)
			}
			return w, nil
		},
		func(w *memWorker, run int) (runVerdict, error) {
			eng, runners, err := sim.NewMembershipCluster(sim.ClusterConfig{Ls: prototypeLs, Sink: p.Trace})
			if err != nil {
				return runVerdict{}, err
			}
			w.rng.Recycle()
			col := sim.NewCollector()
			for id := 1; id <= 4; id++ {
				col.HookMembership(id, runners[id])
				if w.sm != nil {
					runners[id].Service().Protocol().SetMetrics(w.sm)
				}
			}
			if w.sm != nil && run == 0 {
				runners[1].Service().Protocol().SetMetrics(run0Metrics(w.reg, w.sm, "sec8-clique", 4))
			}
			p.traceRun("sec8-clique", run)
			stream := w.rng.Stream(fmt.Sprintf("sec8-clique/run-%d", run))
			faultRound := 6 + stream.Intn(6)
			missedSender := tdma.NodeID(2 + stream.Intn(3))
			eng.Bus().AddDisturbance(fault.ReceiverBlind{
				Receiver: 1, Senders: []tdma.NodeID{missedSender},
				FromRound: faultRound, ToRound: faultRound + 1,
			})
			if err := eng.RunRounds(faultRound + 14); err != nil {
				return runVerdict{}, err
			}
			if w.sys != nil {
				w.sys.ObserveTruth(eng)
				w.sys.ObserveIsolationLatency(eng, col)
				w.sys.ObserveViews(runners)
			}
			lag := runners[1].Service().Protocol().Config().Lag()
			ref := runners[1].View()
			for id := 1; id <= 4; id++ {
				v := runners[id].View()
				if fmt.Sprint(v.Members) != "[2 3 4]" {
					return runVerdict{failure: fmt.Sprintf("node %d view %v", id, v.Members)}, nil
				}
				if v.FormedAtRound != ref.FormedAtRound || v.ID != ref.ID {
					return runVerdict{failure: fmt.Sprintf("node %d view disagrees with node 1", id)}, nil
				}
				if v.FormedAtRound > faultRound+2*(lag+1) {
					return runVerdict{failure: fmt.Sprintf("view formed at %d, fault at %d (liveness)", v.FormedAtRound, faultRound)}, nil
				}
			}
			return runVerdict{pass: true}, nil
		})
	if err != nil {
		return nil, err
	}
	if err := p.recordMetrics("sec8-clique", ws); err != nil {
		return nil, err
	}
	return []CampaignRow{foldRow("minority clique {1} via asymmetric receive fault", verdicts)}, nil
}

// resilienceRunsPerRun is the per-run oracle of resilienceRuns: the same
// schedules (one per run for a narrow case, one per case for a wide one)
// and run-named streams, one lock-step engine per repetition.
func resilienceRunsPerRun(n, a, s, b int, p Params, src *rng.Source) (int, error) {
	scope := fmt.Sprintf("scale/N%d-a%d-s%d-b%d", n, a, s, b)
	cfg := sim.ClusterConfig{N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4}
	wide := n > 16
	if wide {
		cfg.Ls = drawLs(src.Stream(scope+"/schedule"), n)
	}
	failed, err := campaign.RunPooledWith(campaign.Options{Workers: p.Workers}, p.Runs, func() (*rng.Pool, error) { return src.NewPool(), nil },
		func(pool *rng.Pool, run int) (bool, error) {
			pool.Recycle()
			runScope := fmt.Sprintf("%s/run-%d", scope, run)
			runCfg := cfg
			if !wide {
				runCfg.Ls = drawLs(pool.Stream(runScope), n)
			}
			eng, runners, err := sim.NewDiagnosticCluster(runCfg)
			if err != nil {
				return false, err
			}
			col := sim.NewCollector()
			for id := 1; id <= n; id++ {
				col.HookDiag(id, runners[id])
			}
			for _, d := range resilienceDisturbances(eng.Schedule(), pool, runScope, n, a, s, b) {
				eng.Bus().AddDisturbance(d)
			}
			if err := eng.RunRounds(resilienceFaultRound + 10); err != nil {
				return false, err
			}
			return sim.AuditTheorem1(eng, col, resilienceObedient(n, s), 4, resilienceFaultRound+6) != nil, nil
		})
	if err != nil {
		return 0, err
	}
	return countTrue(failed), nil
}
