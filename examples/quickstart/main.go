// Quickstart: a four-node time-triggered cluster (the paper's prototype
// dimensions: N = 4, TDMA round 2.5 ms) runs the add-on diagnostic protocol.
// We corrupt node 3's sending slot in round 6 and watch every node agree on
// the consistent health vector 1101 for that round, a few rounds later.
package main

import (
	"fmt"
	"log"

	"ttdiag"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A homogeneous 4-node cluster with default parameters. Each node runs
	// one diagnostic job per round; the empty config means "never isolate"
	// thresholds, which is ideal for watching pure detection.
	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		return err
	}

	// The disturbance node: corrupt exactly one sending slot — node 3's
	// slot in round 6. All receivers will locally detect the fault (a
	// symmetric benign fault in the paper's fault model).
	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 6, 3, 1))

	// Observe node 1's agreed health vectors as they are produced.
	runners[1].OnOutput = func(out ttdiag.RoundOutput) {
		if out.ConsHV.Known == 0 {
			return // protocol pipeline still warming up
		}
		marker := ""
		if out.ConsHV.CountFaulty(4) > 0 {
			marker = "   <- node 3's fault, diagnosed consistently"
		}
		fmt.Printf("round %2d: agreed health of round %2d = %s%s\n",
			out.Round, out.DiagnosedRound, out.ConsHV.String(4), marker)
	}

	if err := eng.RunRounds(12); err != nil {
		return err
	}

	// Every node reached the same conclusion (consistency property).
	fmt.Println()
	for id := 1; id <= 4; id++ {
		fmt.Printf("node %d penalty counter for node 3: %d\n",
			id, runners[id].Protocol().PenaltyReward().Penalty(3))
	}
	return nil
}
