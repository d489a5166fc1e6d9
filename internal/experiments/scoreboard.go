package experiments

import (
	"fmt"
	"math"

	"ttdiag/internal/fault"
	"ttdiag/internal/sim"
	"ttdiag/internal/tuning"
)

func init() {
	register(Experiment{
		ID:    "scoreboard",
		Title: "Paper-vs-measured scoreboard over every headline number",
		Ref:   "whole evaluation",
		Run:   runScoreboard,
	})
}

// scoreCheck is one headline number of the paper together with its measured
// reproduction and an acceptance tolerance.
type scoreCheck struct {
	artifact string
	quantity string
	paper    float64
	measured float64
	// tol is the accepted relative deviation (0 = exact).
	tol  float64
	unit string
}

func (c scoreCheck) pass() bool {
	if c.tol == 0 {
		return c.measured == c.paper
	}
	if c.paper == 0 {
		return math.Abs(c.measured) <= c.tol
	}
	return math.Abs(c.measured-c.paper)/math.Abs(c.paper) <= c.tol
}

// runScoreboard recomputes every headline number from scratch and scores it
// against the published value — the one-page acceptance test of the
// reproduction.
func runScoreboard(p Params) error {
	var checks []scoreCheck

	// Table 2: tuning thresholds, exact.
	auto, err := tuning.Derive(tuning.Automotive())
	if err != nil {
		return err
	}
	aero, err := tuning.Derive(tuning.Aerospace())
	if err != nil {
		return err
	}
	checks = append(checks,
		scoreCheck{"Table 2", "automotive P", 197, float64(auto.P), 0, ""},
		scoreCheck{"Table 2", "automotive s_SC", 40, float64(auto.PerClass[0].Criticality), 0, ""},
		scoreCheck{"Table 2", "automotive s_SR", 6, float64(auto.PerClass[1].Criticality), 0, ""},
		scoreCheck{"Table 2", "automotive s_NSR", 1, float64(auto.PerClass[2].Criticality), 0, ""},
		scoreCheck{"Table 2", "aerospace P", 17, float64(aero.P), 0, ""},
	)

	// Table 4: time to incorrect isolation, round-aligned runs; the paper's
	// numbers carry the testbed's phase artifacts, so the acceptance band
	// is one blinking-light period (automotive) / a few rounds (aerospace).
	autoRows, err := tuning.TimeToIncorrectIsolation(fault.BlinkingLight(), auto, 1, p.campaignOpts(), p.Seed, false)
	if err != nil {
		return err
	}
	aeroRows, err := tuning.TimeToIncorrectIsolation(fault.LightningBolt(), aero, 1, p.campaignOpts(), p.Seed, false)
	if err != nil {
		return err
	}
	paperT4 := map[string]float64{"SC": 0.518, "SR": 4.595, "NSR": 24.475}
	for _, row := range autoRows {
		checks = append(checks, scoreCheck{
			"Table 4", "automotive " + row.Class, paperT4[row.Class],
			row.Mean.Seconds(), 0.15, "s",
		})
	}
	checks = append(checks, scoreCheck{
		"Table 4", "aerospace SC", 0.205, aeroRows[0].Mean.Seconds(), 0.05, "s",
	})

	// Fig. 3: correlation probability at the tuned R, < 1% claim.
	prob := tuning.CorrelationProbability(1.0/252000, tuning.PaperRewardThreshold, sim.DefaultRoundLen)
	checks = append(checks, scoreCheck{"Fig. 3", "P(correlate) at R=10^6, 1/70h", 0.01, prob, 0.05, ""})

	// Sec. 10 latencies (rounds).
	lat, err := detectionLatencies()
	if err != nil {
		return err
	}
	checks = append(checks,
		scoreCheck{"Sec. 10", "add-on latency (k-3)", 3, float64(lat[0]), 0, "rounds"},
		scoreCheck{"Sec. 10", "add-on latency (k-2)", 2, float64(lat[1]), 0, "rounds"},
		scoreCheck{"Sec. 10", "system-level latency", 1, float64(lat[2]), 0, "rounds"},
	)

	// Sec. 8 campaign: all classes pass.
	small := Params{Seed: p.Seed, Runs: 3, Workers: p.Workers, Progress: p.Progress}
	for _, c := range []struct {
		name string
		fn   func(Params) ([]CampaignRow, error)
	}{
		{"bursts", BurstCampaign}, {"pr", PRCampaign},
		{"malicious", MaliciousCampaign}, {"clique", CliqueCampaign},
	} {
		rows, err := c.fn(small)
		if err != nil {
			return err
		}
		total, passed := 0, 0
		for _, r := range rows {
			total += r.Runs
			passed += r.Passed
		}
		checks = append(checks, scoreCheck{
			"Sec. 8", "campaign " + c.name + " pass rate", 1,
			float64(passed) / float64(total), 0, "",
		})
	}

	t := newTable(p.Out)
	t.row("artifact", "quantity", "paper", "measured", "verdict")
	t.rule(5)
	allPass := true
	for _, c := range checks {
		verdict := "PASS"
		if !c.pass() {
			verdict = "FAIL"
			allPass = false
		}
		t.row(c.artifact, c.quantity,
			fmt.Sprintf("%.4g%s", c.paper, c.unit),
			fmt.Sprintf("%.4g%s", c.measured, c.unit), verdict)
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(p.Out, "\n%d checks", len(checks))
	if allPass {
		fmt.Fprintln(p.Out, ", all pass")
		return nil
	}
	fmt.Fprintln(p.Out, "")
	return fmt.Errorf("scoreboard has failing checks")
}
