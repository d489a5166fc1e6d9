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

func init() {
	register(Experiment{
		ID:    "sec8-bursts",
		Title: "Burst injection campaign: 1 slot / 2 slots / 2 rounds from every slot",
		Ref:   "Sec. 8 (validation)",
		Run:   runSec8Bursts,
	})
	register(Experiment{
		ID:    "sec8-pr",
		Title: "Penalty/reward counter updates under periodic faults",
		Ref:   "Sec. 8 (validation)",
		Run:   runSec8PR,
	})
	register(Experiment{
		ID:    "sec8-malicious",
		Title: "Malicious node broadcasting random local syndromes",
		Ref:   "Sec. 8 (validation)",
		Run:   runSec8Malicious,
	})
	register(Experiment{
		ID:    "sec8-clique",
		Title: "Clique detection by the membership protocol",
		Ref:   "Sec. 8 (validation)",
		Run:   runSec8Clique,
	})
}

// CampaignRow is the outcome of one experiment class of the Sec. 8 campaign.
type CampaignRow struct {
	// Class names the experiment class.
	Class string
	// Runs and Passed count repetitions and successful audits.
	Runs, Passed int
	// FirstFailure describes the first failed audit, if any.
	FirstFailure string
}

func renderCampaign(p Params, rows []CampaignRow) error {
	t := newTable(p.Out)
	t.row("experiment class", "passed", "first failure")
	t.rule(3)
	total, passed := 0, 0
	for _, r := range rows {
		t.row(r.Class, fmt.Sprintf("%d/%d", r.Passed, r.Runs), r.FirstFailure)
		total += r.Runs
		passed += r.Passed
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(p.Out, "\n%d/%d injections passed their audits\n", passed, total)
	return nil
}

// prototypeLs is the unconstrained node schedule used across the campaign
// (the add-on deployment with detection latency k-3).
var prototypeLs = []int{2, 0, 3, 1}

// diagWorker is the reusable per-worker state of a pooled diagnostic
// campaign: one cluster, one stream pool and one collector, reset/recycled
// per repetition, plus the worker's telemetry instruments when the campaign
// collects metrics (reg is nil otherwise and every metrics hook is a no-op).
type diagWorker struct {
	cl    *sim.DiagCluster
	rng   *rng.Pool
	col   *sim.Collector
	reg   *metrics.Registry
	sm    *core.StepMetrics // counter/gauge instruments, all runs
	sm0   *core.StepMetrics // run-0 variant with penalty trajectories, lazy
	sys   *sim.RunMetrics
	class string // unique series-name prefix of this campaign class
}

func newDiagWorker(p Params, ws *metrics.WorkerSet, class string, src *rng.Source, cfg sim.ClusterConfig) func() (*diagWorker, error) {
	return func() (*diagWorker, error) {
		cfg.Sink = p.Trace
		cl, err := sim.NewReusableDiagnosticCluster(cfg)
		if err != nil {
			return nil, err
		}
		w := &diagWorker{cl: cl, rng: src.NewPool(), col: sim.NewCollector(), class: class}
		if reg := ws.Worker(); reg != nil {
			w.reg = reg
			w.sm = core.NewStepMetrics(reg)
			w.sys = sim.NewRunMetrics(reg)
		}
		return w, nil
	}
}

// begin readies the worker for repetition run. Recycling the streams is
// safe here because the cluster reset has already dropped the disturbances
// that could still hold one. With metrics on, every protocol gets the
// worker's shared instruments (the lock-step engine steps them from one
// goroutine); run 0's node-1 observer additionally records the penalty
// trajectories — one observer, one run, as StepMetrics requires.
func (w *diagWorker) begin(run int) (*sim.Engine, []*sim.DiagRunner) {
	w.cl.Reset()
	w.rng.Recycle()
	w.col.Reset()
	if w.sm != nil {
		for id := 1; id < len(w.cl.Runners); id++ {
			w.cl.Runners[id].Protocol().SetMetrics(w.sm)
		}
		if run == 0 {
			w.cl.Runners[1].Protocol().SetMetrics(w.run0Metrics())
		}
	}
	return w.cl.Eng, w.cl.Runners
}

// run0Metrics builds (once) the StepMetrics variant that also appends the
// per-node penalty trajectories, named under the campaign class so series
// stay unique across the whole report.
func (w *diagWorker) run0Metrics() *core.StepMetrics {
	if w.sm0 == nil {
		sm := *w.sm
		n := len(w.cl.Runners) - 1
		sm.PenaltySeries = make([]*metrics.Series, n+1)
		for j := 1; j <= n; j++ {
			sm.PenaltySeries[j] = w.reg.Series(fmt.Sprintf("%s/penalty/node%d", w.class, j), 256)
		}
		w.sm0 = &sm
	}
	return w.sm0
}

// observe folds the completed repetition's system-level ground truth into
// the worker's registry; a no-op with metrics off.
func (w *diagWorker) observe(eng *sim.Engine) {
	if w.sys == nil {
		return
	}
	w.sys.ObserveTruth(eng)
	w.sys.ObserveIsolationLatency(eng, w.col)
}

// memWorker is the membership counterpart of diagWorker.
type memWorker struct {
	cl    *sim.MembershipCluster
	rng   *rng.Pool
	col   *sim.Collector
	reg   *metrics.Registry
	sm    *core.StepMetrics
	sm0   *core.StepMetrics
	sys   *sim.RunMetrics
	class string
}

func newMemWorker(p Params, ws *metrics.WorkerSet, class string, src *rng.Source, cfg sim.ClusterConfig) func() (*memWorker, error) {
	return func() (*memWorker, error) {
		cfg.Sink = p.Trace
		cl, err := sim.NewReusableMembershipCluster(cfg)
		if err != nil {
			return nil, err
		}
		w := &memWorker{cl: cl, rng: src.NewPool(), col: sim.NewCollector(), class: class}
		if reg := ws.Worker(); reg != nil {
			w.reg = reg
			w.sm = core.NewStepMetrics(reg)
			w.sys = sim.NewRunMetrics(reg)
		}
		return w, nil
	}
}

func (w *memWorker) begin(run int) (*sim.Engine, []*sim.MembershipRunner) {
	w.cl.Reset()
	w.rng.Recycle()
	w.col.Reset()
	if w.sm != nil {
		for id := 1; id < len(w.cl.Runners); id++ {
			w.cl.Runners[id].Service().Protocol().SetMetrics(w.sm)
		}
		if run == 0 {
			w.cl.Runners[1].Service().Protocol().SetMetrics(w.run0Metrics())
		}
	}
	return w.cl.Eng, w.cl.Runners
}

func (w *memWorker) run0Metrics() *core.StepMetrics {
	if w.sm0 == nil {
		sm := *w.sm
		n := len(w.cl.Runners) - 1
		sm.PenaltySeries = make([]*metrics.Series, n+1)
		for j := 1; j <= n; j++ {
			sm.PenaltySeries[j] = w.reg.Series(fmt.Sprintf("%s/penalty/node%d", w.class, j), 256)
		}
		w.sm0 = &sm
	}
	return w.sm0
}

// observe additionally folds the membership view transitions, which only
// exist on this worker kind.
func (w *memWorker) observe(eng *sim.Engine, runners []*sim.MembershipRunner) {
	if w.sys == nil {
		return
	}
	w.sys.ObserveTruth(eng)
	w.sys.ObserveIsolationLatency(eng, w.col)
	w.sys.ObserveViews(runners)
}

// runVerdict is the outcome of one campaign repetition: pass, or the audit
// failure text. Campaign run functions return it so that aggregation into a
// CampaignRow happens after the worker join, in run-index order.
type runVerdict struct {
	pass    bool
	failure string
}

// foldRow aggregates per-run verdicts (indexed by run) into one campaign
// row; FirstFailure is the failure of the lowest-indexed failing run, so it
// is identical at every worker count.
func foldRow(class string, verdicts []runVerdict) CampaignRow {
	row := CampaignRow{Class: class, Runs: len(verdicts)}
	for _, v := range verdicts {
		if v.pass {
			row.Passed++
		} else if row.FirstFailure == "" {
			row.FirstFailure = v.failure
		}
	}
	return row
}

// BurstCampaign runs the twelve burst experiment classes: bursts of one
// slot, two slots and two whole TDMA rounds, starting at each of the four
// sending slots. Every repetition shifts the injection round, and every run
// is audited for Theorem 1's correctness, completeness and consistency.
//
// Untraced, this campaign and PRCampaign and MaliciousCampaign run as
// lane-packed gangs (sec8_batch.go); their per-run bodies below serve traced
// campaigns and are the reference the gangs are tested against.
func BurstCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	if p.batched() {
		return burstCampaignBatched(p)
	}
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	var rows []CampaignRow
	for _, slots := range []int{1, 2, 8} {
		for startSlot := 1; startSlot <= 4; startSlot++ {
			slots, startSlot := slots, startSlot
			class := fmt.Sprintf("sec8-bursts/%d-from-%d", slots, startSlot)
			verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
				newDiagWorker(p, ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
				func(w *diagWorker, run int) (runVerdict, error) {
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

func runSec8Bursts(p Params) error {
	rows, err := BurstCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
}

// PRCampaign reproduces the p/r validation class: a fault in one node's
// sending slot every second round for 20 rounds; either the penalty or the
// reward counter must advance every round, identically at every node.
func PRCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	if p.batched() {
		return prCampaignBatched(p)
	}
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
		newDiagWorker(p, ws, "sec8-pr", src, sim.ClusterConfig{
			Ls: prototypeLs,
			PR: core.PRConfig{PenaltyThreshold: 1 << 30, RewardThreshold: 100},
		}),
		func(w *diagWorker, run int) (runVerdict, error) {
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

func runSec8PR(p Params) error {
	rows, err := PRCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
}

// MaliciousCampaign runs the four malicious-node classes: each node in turn
// broadcasts random local syndromes; the obedient nodes must never diagnose
// a correct node as faulty and must stay consistent.
func MaliciousCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	if p.batched() {
		return maliciousCampaignBatched(p)
	}
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	var rows []CampaignRow
	for mal := 1; mal <= 4; mal++ {
		mal := mal
		class := fmt.Sprintf("sec8-malicious/node-%d", mal)
		verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
			newDiagWorker(p, ws, class, src, sim.ClusterConfig{Ls: prototypeLs}),
			func(w *diagWorker, run int) (runVerdict, error) {
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
						if hv := col.ConsHV[d][obedient[0]]; hv.CountFaulty(4) != 0 {
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

func runSec8Malicious(p Params) error {
	rows, err := MaliciousCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
}

// CliqueCampaign reproduces the membership validation: the disturbance node
// sits between node 1 and the rest of the cluster, so node 1 misses another
// node's broadcast and forms a minority clique; every obedient node must
// install the view {2,3,4} in the same round, within two protocol
// executions.
func CliqueCampaign(p Params) ([]CampaignRow, error) {
	p = p.withDefaults()
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	verdicts, err := campaign.RunPooledWith(p.campaignOpts(), p.Runs,
		newMemWorker(p, ws, "sec8-clique", src, sim.ClusterConfig{Ls: prototypeLs}),
		func(w *memWorker, run int) (runVerdict, error) {
			eng, runners := w.begin(run)
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
			w.observe(eng, runners)
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

func runSec8Clique(p Params) error {
	rows, err := CliqueCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
}
