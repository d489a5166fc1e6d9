package experiments

import (
	"fmt"

	"ttdiag/internal/core"
	"ttdiag/internal/metrics"
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

// renderCampaign prints the campaign table and its pass count, and returns
// an error when any audit failed, so a failed campaign exits non-zero.
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
	if passed != total {
		return fmt.Errorf("%d injections failed their audits", total-passed)
	}
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

func runSec8Clique(p Params) error {
	rows, err := CliqueCampaign(p)
	if err != nil {
		return err
	}
	return renderCampaign(p, rows)
}
