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

// run0Metrics returns a copy of sm that also appends the per-node penalty
// trajectories of an n-node cluster — the instruments of run 0's node-1
// observer (one observer, one run, as StepMetrics requires) — named under
// the campaign class so series stay unique across the whole report.
func run0Metrics(reg *metrics.Registry, sm *core.StepMetrics, class string, n int) *core.StepMetrics {
	run0 := *sm
	run0.PenaltySeries = make([]*metrics.Series, n+1)
	for j := 1; j <= n; j++ {
		run0.PenaltySeries[j] = reg.Series(fmt.Sprintf("%s/penalty/node%d", class, j), 256)
	}
	return &run0
}

// memWorker is the reusable per-worker state of a pooled membership
// campaign: one cluster, one stream pool and one collector, reset/recycled
// per repetition, plus the worker's telemetry instruments when the campaign
// collects metrics (reg is nil otherwise and every metrics hook is a no-op).
type memWorker struct {
	cl    *sim.MembershipCluster
	rng   *rng.Pool
	col   *sim.Collector
	reg   *metrics.Registry
	sm    *core.StepMetrics
	sys   *sim.RunMetrics
	class string // unique series-name prefix of this campaign class
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

// begin readies the worker for repetition run. Recycling the streams is
// safe here because the cluster reset has already dropped the disturbances
// that could still hold one. With metrics on, every protocol gets the
// worker's shared instruments (the lock-step engine steps them from one
// goroutine), and run 0's node-1 observer also records the penalty
// trajectories.
func (w *memWorker) begin(run int) (*sim.Engine, []*sim.MembershipRunner) {
	w.cl.Reset()
	w.rng.Recycle()
	w.col.Reset()
	if w.sm != nil {
		for id := 1; id < len(w.cl.Runners); id++ {
			w.cl.Runners[id].Service().Protocol().SetMetrics(w.sm)
		}
		if run == 0 {
			w.cl.Runners[1].Service().Protocol().SetMetrics(run0Metrics(w.reg, w.sm, w.class, len(w.cl.Runners)-1))
		}
	}
	return w.cl.Eng, w.cl.Runners
}

// observe folds the completed repetition's system-level ground truth and
// membership view transitions into the worker's registry; a no-op with
// metrics off.
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

func runSec8Bursts(p Params) error {
	rows, err := BurstCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
}

func runSec8PR(p Params) error {
	rows, err := PRCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
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
