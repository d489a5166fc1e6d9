package experiments

import (
	"fmt"
	"strconv"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/sim"
	"ttdiag/internal/tuning"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Example diagnostic matrix with nodes 3 and 4 benign faulty",
		Ref:   "Table 1",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Experimental tuning of the p/r algorithm (P, s_i, R per domain)",
		Ref:   "Table 2",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Abnormal transient scenario definitions as injected",
		Ref:   "Table 3",
		Run:   runTable3,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Time to incorrect isolation under abnormal transients",
		Ref:   "Table 4",
		Run:   runTable4,
	})
}

// runTable1 reproduces Table 1 end-to-end on the simulation stack: nodes 3
// and 4 are benign faulty senders in both the diagnosed round and the
// dissemination round; node 1's diagnostic matrix and the voted consistent
// health vector are printed.
func runTable1(p Params) error {
	eng, runners, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
		Ls: sim.Staircase(4), AllSendCurrRound: true,
	})
	if err != nil {
		return err
	}
	const diagRound = 6
	var bursts []fault.Burst
	for _, r := range []int{diagRound, diagRound + 1} {
		bursts = append(bursts,
			fault.SlotBurst(eng.Schedule(), r, 3, 1),
			fault.SlotBurst(eng.Schedule(), r, 4, 1))
	}
	eng.Bus().AddDisturbance(fault.NewTrain(bursts...))

	var matrix *core.Matrix
	var consHV core.BitSyndrome
	runners[1].OnOutput = func(out core.RoundOutput) {
		if out.DiagnosedRound == diagRound {
			matrix = runners[1].Protocol().Matrix()
			consHV = out.ConsHV
		}
	}
	if err := eng.RunRounds(diagRound + 4); err != nil {
		return err
	}
	if matrix == nil {
		return fmt.Errorf("diagnosed round %d never analysed", diagRound)
	}
	fmt.Fprintf(p.Out, "diagnostic matrix at node 1 for diagnosed round %d:\n%s\n", diagRound, matrix)
	fmt.Fprintf(p.Out, "consistent health vector: %s   (paper: 1 1 0 0)\n", consHV.String(4))
	return nil
}

// runTable2 reruns the Sec. 9 tuning procedure for both domains and prints
// the Table 2 rows.
func runTable2(p Params) error {
	t := newTable(p.Out)
	t.row("Domain", "Class", "Example", "Tolerated outage", "p_i", "s_i", "P", "R", "TDMA")
	t.rule(9)
	for _, spec := range []tuning.DomainSpec{tuning.Automotive(), tuning.Aerospace(), tuning.AutomotiveUpperBound()} {
		res, err := tuning.Derive(spec)
		if err != nil {
			return err
		}
		for i, ct := range res.PerClass {
			domain := ""
			pCol, rCol, tCol := "", "", ""
			if i == 0 {
				domain = res.Domain
				pCol = strconv.FormatInt(res.P, 10)
				rCol = fmt.Sprintf("%g", float64(res.R))
				tCol = res.RoundLen.String()
			}
			t.row(domain, ct.Class.Name, ct.Class.Example, ct.Class.Outage.String(),
				strconv.FormatInt(ct.Penalty, 10), strconv.FormatInt(ct.Criticality, 10),
				pCol, rCol, tCol)
		}
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\npaper: automotive P=197, s = 40/6/1; aerospace P=17, s=1; R=10^6; T=2.5ms")
	return nil
}

// runTable3 prints the abnormal transient scenarios exactly as the injector
// lays them out.
func runTable3(p Params) error {
	t := newTable(p.Out)
	t.row("Scenario", "Burst", "TTReapp.", "# Inj.")
	t.rule(4)
	for _, scen := range []fault.Scenario{fault.BlinkingLight(), fault.LightningBolt()} {
		for i, ph := range scen.Phases {
			name := ""
			if i == 0 {
				name = scen.Name
			}
			t.row(name, ph.Burst.String(), ph.Reappearance.String(), strconv.Itoa(ph.Count))
		}
	}
	if err := t.flush(); err != nil {
		return err
	}
	for _, scen := range []fault.Scenario{fault.BlinkingLight(), fault.LightningBolt()} {
		fmt.Fprintf(p.Out, "%s: %d bursts spanning %v\n", scen.Name, scen.TotalBursts(), scen.Span())
	}
	return nil
}

// runTable4 measures the time to incorrect isolation per criticality class
// under the Table 3 scenarios, with the paper's 100 repetitions at random
// burst phase plus the deterministic round-aligned run.
func runTable4(p Params) error {
	paper := map[string]string{
		"Automotive/SC": "0.518s", "Automotive/SR": "4.595s", "Automotive/NSR": "24.475s",
		"Aerospace/SC": "0.205s",
	}
	t := newTable(p.Out)
	t.row("Setting", "Class", "s_i", "aligned", "mean(rand)", "p50", "p95", "min", "max", "isolated", "paper")
	t.rule(11)
	type domainScen struct {
		spec tuning.DomainSpec
		scen fault.Scenario
	}
	for _, ds := range []domainScen{
		{spec: tuning.Automotive(), scen: fault.BlinkingLight()},
		{spec: tuning.Aerospace(), scen: fault.LightningBolt()},
	} {
		res, err := tuning.Derive(ds.spec)
		if err != nil {
			return err
		}
		aligned, err := tuning.TimeToIncorrectIsolation(ds.scen, res, 1, p.Workers, p.Seed, false)
		if err != nil {
			return err
		}
		random, err := tuning.TimeToIncorrectIsolation(ds.scen, res, p.Runs, p.Workers, p.Seed, true)
		if err != nil {
			return err
		}
		for i, row := range random {
			al := time.Duration(-1)
			if aligned[i].IsolatedRuns > 0 {
				al = aligned[i].Mean
			}
			t.row(ds.spec.Name, row.Class, strconv.FormatInt(row.Criticality, 10),
				ms(al), ms(row.Mean), ms(row.Summary.P50), ms(row.Summary.P95), ms(row.Min), ms(row.Max),
				fmt.Sprintf("%d/%d", row.IsolatedRuns, row.Runs),
				paper[ds.spec.Name+"/"+row.Class])
		}
	}
	return t.flush()
}
