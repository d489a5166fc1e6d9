// Platforms: the same add-on protocol code running unchanged on
// representative FlexRay, TTP/C, SAFEbus and TT-Ethernet deployments
// (Sec. 10 portability), including one cluster with dynamic node scheduling
// where the OS moves the diagnostic job to a different position every round.
// A 5% random-noise environment stresses each cluster while we watch the
// diagnosis stay consistent.
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
	for _, prof := range ttdiag.Platforms() {
		if err := runProfile(prof); err != nil {
			return fmt.Errorf("%s: %w", prof.Name, err)
		}
	}
	return runDynamic()
}

func runProfile(prof ttdiag.Platform) error {
	eng, runners, err := ttdiag.NewSimulation(prof.ClusterConfig())
	if err != nil {
		return err
	}
	eng.Bus().AddDisturbance(ttdiag.NewRandomNoise(0.05, 42))

	col := ttdiag.NewCollector()
	obedient := make([]int, prof.N)
	for id := 1; id <= prof.N; id++ {
		col.HookDiag(id, runners[id])
		obedient[id-1] = id
	}
	const rounds = 200
	if err := eng.RunRounds(rounds); err != nil {
		return err
	}
	// The audit cross-checks every agreed health vector against the bus's
	// ground truth; benign-only noise keeps diagnosis exact at any load.
	if err := ttdiag.AuditTheorem1(eng, col, obedient, 4, rounds-4); err != nil {
		return err
	}
	faulty := 0
	for d := 4; d < rounds-4; d++ {
		faulty += col.ConsHV[d][1].CountFaulty(prof.N)
	}
	fmt.Printf("%-12s N=%-3d round=%-6v dm=%d byte(s): %d rounds, %d faulty slots diagnosed, audit clean\n",
		prof.Name, prof.N, prof.RoundLen, (prof.N+7)/8, rounds, faulty)
	return nil
}

func runDynamic() error {
	// Dynamic node scheduling: the OS moves each job every round; jobs of
	// nodes 1, 3, 4 stay before their slots, node 2's runs after its slot.
	sides := []bool{true, false, true, true}
	position := func(id, round int) int {
		if sides[id-1] {
			return (round * 7) % id // wanders in 0..id-1
		}
		return id + (round*5)%(4-id) // wanders in id..N-1
	}
	eng, runners, err := ttdiag.NewDynamicSimulation(ttdiag.SimulationConfig{}, sides, position)
	if err != nil {
		return err
	}
	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 8, 3, 1))
	if err := eng.RunRounds(16); err != nil {
		return err
	}
	for id := 1; id <= 4; id++ {
		if runners[id].Last().ConsHV != runners[1].Last().ConsHV {
			return fmt.Errorf("dynamic cluster disagreed")
		}
	}
	fmt.Printf("%-12s N=4   dynamic scheduling: job positions wander every round, diagnosis stays agreed\n", "dynamic")
	return nil
}
