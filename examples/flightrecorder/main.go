// Flight recorder: record the trace of a live run, then analyse it offline —
// including a counterfactual replay under different tuning. The diagnosis is
// a deterministic function of the bus observations, and the trace records
// every deviation from a clean broadcast, so the trace is all a post-mortem
// needs.
package main

import (
	"fmt"
	"log"
	"math/bits"

	"ttdiag"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var rec ttdiag.Recorder
	cfg := ttdiag.SimulationConfig{
		PR:   ttdiag.PRConfig{PenaltyThreshold: 5, RewardThreshold: 20},
		Sink: &rec,
	}

	// --- Live run: node 3 suffers a 7-round transient and is isolated. ---
	eng, _, err := ttdiag.NewSimulation(cfg)
	if err != nil {
		return err
	}
	// Corrupt node 3's sending slot for 7 consecutive rounds (an external
	// transient hitting only its stub).
	bursts := make([]ttdiag.Burst, 0, 7)
	for r := 6; r < 13; r++ {
		start, _ := eng.Schedule().SlotWindow(r, 3)
		bursts = append(bursts, ttdiag.Burst{Start: start, Length: eng.Schedule().SlotLen()})
	}
	eng.Bus().AddDisturbance(ttdiag.NewTrain(bursts...))
	if err := eng.RunRounds(30); err != nil {
		return err
	}
	events := rec.Events()
	fmt.Printf("recorded %d trace events (30 rounds)\n\n", len(events))

	// --- Post-mortem: reconstruct what node 1 decided. ---
	cfg.Sink = nil
	diags, err := ttdiag.ReplayTrace(events, cfg, 1)
	if err != nil {
		return err
	}
	for _, d := range diags {
		if d.Isolated == 0 {
			continue
		}
		var nodes []int
		for m := d.Isolated; m != 0; m &= m - 1 {
			nodes = append(nodes, bits.TrailingZeros64(m)+1)
		}
		fmt.Printf("deployed tuning (P=5): round %d isolated %v (health %s)\n",
			d.Round, nodes, d.ConsHV.String(4))
	}

	// --- Counterfactual: would P=50 have ridden the transient out? ---
	cfg.PR.PenaltyThreshold = 50
	diags, err = ttdiag.ReplayTrace(events, cfg, 1)
	if err != nil {
		return err
	}
	isolations := 0
	for _, d := range diags {
		isolations += bits.OnesCount64(d.Isolated)
	}
	fmt.Printf("counterfactual tuning (P=50): %d isolations — the transient would have been filtered\n", isolations)
	return nil
}
