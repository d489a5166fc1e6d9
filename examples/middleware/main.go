// Middleware integration: how an application consumes the diagnostic
// protocol's activity vector. A steer-by-wire function runs replicated on
// nodes 1 (primary) and 3 (backup); the actuator on node 4 follows the
// primary while the agreed activity vector says it is alive and fails over
// to the backup the moment the protocol isolates the primary — in the same
// round on every node, because isolation decisions are consistent.
//
// This is the paper's deployment story: the protocol is an add-on job next
// to the application jobs, and `active` is its only interface to them.
package main

import (
	"fmt"
	"log"

	"ttdiag"
)

const (
	primary = 1
	backup  = 3
)

// steering is the application-side replica selector of the actuator node.
type steering struct {
	source    int
	failovers int
}

// observe reacts to the diagnostic protocol's activity vector (bit j-1 =
// node j active).
func (s *steering) observe(round int, active uint64) {
	want := primary
	if active&(1<<(primary-1)) == 0 {
		want = backup
	}
	if want != s.source {
		fmt.Printf("round %2d: actuator fails over from node %d to node %d\n", round, s.source, want)
		s.source = want
		s.failovers++
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{
		// Fast isolation for the demo: P=4 with unit criticalities.
		PR: ttdiag.PRConfig{PenaltyThreshold: 4, RewardThreshold: 100},
	})
	if err != nil {
		return err
	}

	// The primary's host develops an intermittent internal fault at round 8
	// and stops transmitting for good at round 14 (an unhealthy node in the
	// extended fault model).
	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 8, primary, 1))
	eng.Bus().AddDisturbance(ttdiag.Crash(primary, 14))

	// The application module on the actuator node (4) watches the activity
	// vector produced by the local diagnostic job — the protocol's internal
	// output (Alg. 1 line 15).
	sel := &steering{source: primary}
	runners[4].OnOutput = func(out ttdiag.RoundOutput) {
		sel.observe(out.Round, out.Active)
	}

	if err := eng.RunRounds(30); err != nil {
		return err
	}

	fmt.Printf("\nfailovers: %d (the burst at round 8 was filtered by the p/r algorithm;\n", sel.failovers)
	fmt.Println("only the permanent fault from round 14 triggered isolation and failover)")

	// Every other node's application would have made the same decision in
	// the same round: the activity vectors are consistent.
	for id := 1; id <= 4; id++ {
		if id == primary {
			continue
		}
		if runners[id].Last().Active&(1<<(primary-1)) != 0 {
			return fmt.Errorf("node %d still considers the primary active", id)
		}
	}
	fmt.Println("all replicas agree on the failover decision (consistency of Alg. 1)")
	return nil
}
