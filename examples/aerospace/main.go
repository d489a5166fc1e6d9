// Aerospace: a safety-critical backbone (High Lift and Landing Gear
// controllers) tuned per Table 2 (P = 17, s = 1, R = 10^6) and struck by
// the lightning-bolt scenario of Table 3: 40 ms disturbance bursts with
// increasing time to reappearance (160 ms, 290 ms, then nine at 500 ms).
//
// The example also demonstrates the reintegration extension suggested in the
// paper's Sec. 9: isolated nodes are kept under observation and return to
// service after a clean observation window, so the lightning strike costs
// availability only temporarily.
package main

import (
	"fmt"
	"log"
	"math/bits"
	"time"

	"ttdiag"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	res, err := ttdiag.DeriveTuning(ttdiag.Aerospace())
	if err != nil {
		return err
	}
	fmt.Printf("derived tuning: P=%d, s=%d, R=%g (50 ms tolerated outage at T=2.5 ms)\n",
		res.P, res.PerClass[0].Criticality, float64(res.R))

	prCfg := res.PRConfig(4)
	// Reintegration extension: after 400 consecutive clean rounds (1 s of
	// fault-free behaviour under observation) an isolated node rejoins.
	prCfg.ReintegrationThreshold = 400

	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{PR: prCfg})
	if err != nil {
		return err
	}

	scenario := ttdiag.LightningBolt()
	eng.Bus().AddDisturbance(scenario.Train(0))
	fmt.Printf("\ninjecting %q: %d bursts over %v\n\n",
		scenario.Name, scenario.TotalBursts(), scenario.Span())

	runners[1].OnOutput = func(out ttdiag.RoundOutput) {
		at := eng.Schedule().RoundStart(out.Round)
		for m := out.Isolated; m != 0; m &= m - 1 {
			fmt.Printf("t=%8v: node %d isolated (paper Table 4: ~0.205 s for the first)\n", at, bits.TrailingZeros64(m)+1)
		}
		for m := out.Reintegrated; m != 0; m &= m - 1 {
			fmt.Printf("t=%8v: node %d reintegrated after a clean observation window\n", at, bits.TrailingZeros64(m)+1)
		}
	}

	rounds := int((scenario.Span() + 3*time.Second) / eng.Schedule().RoundLen())
	if err := eng.RunRounds(rounds); err != nil {
		return err
	}

	pr := runners[1].Protocol().PenaltyReward()
	active := 0
	for id := 1; id <= 4; id++ {
		if pr.IsActive(id) {
			active++
		}
	}
	fmt.Printf("\nafter the storm: %d/4 nodes active again\n", active)
	return nil
}
