package ttdiag_test

import (
	"fmt"

	"ttdiag"
)

// Example runs the doc-comment quick start: a four-node cluster, one benign
// fault, one agreed health vector.
func Example() {
	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{})
	if err != nil {
		panic(err)
	}
	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 6, 3, 1))
	runners[1].OnOutput = func(out ttdiag.RoundOutput) {
		if out.DiagnosedRound == 6 {
			fmt.Printf("agreed health of round 6: %s\n", out.ConsHV.String(4))
		}
	}
	if err := eng.RunRounds(12); err != nil {
		panic(err)
	}
	// Output:
	// agreed health of round 6: 1101
}

// ExampleHMaj shows the hybrid majority vote of Eqn. 1: erased votes are
// excluded, ties acquit.
func ExampleHMaj() {
	verdict, ok := ttdiag.HMaj([]ttdiag.Opinion{ttdiag.Faulty, ttdiag.Faulty, ttdiag.Healthy})
	fmt.Println(verdict, ok)
	verdict, ok = ttdiag.HMaj([]ttdiag.Opinion{ttdiag.Faulty, ttdiag.Healthy, ttdiag.Erased})
	fmt.Println(verdict, ok)
	_, ok = ttdiag.HMaj([]ttdiag.Opinion{ttdiag.Erased, ttdiag.Erased})
	fmt.Println(ok)
	// Output:
	// 0 true
	// 1 true
	// false
}

// ExampleDeriveTuning reruns the Sec. 9 tuning procedure for the automotive
// domain and prints the Table 2 values.
func ExampleDeriveTuning() {
	res, err := ttdiag.DeriveTuning(ttdiag.Automotive())
	if err != nil {
		panic(err)
	}
	fmt.Printf("P=%d R=%d\n", res.P, res.R)
	for _, ct := range res.PerClass {
		fmt.Printf("%s: s=%d\n", ct.Class.Name, ct.Criticality)
	}
	// Output:
	// P=197 R=1000000
	// SC: s=40
	// SR: s=6
	// NSR: s=1
}

// ExampleNewRecoveryPlan derives degraded modes from activity vectors: the
// consistency of the diagnosis makes the switch safe without extra
// agreement.
func ExampleNewRecoveryPlan() {
	plan, err := ttdiag.NewRecoveryPlan(4, []ttdiag.RecoveryJob{
		{Name: "steer", Criticality: 40, Hosts: []int{1, 3}},
		{Name: "doors", Criticality: 1, Hosts: []int{4}, Degradable: true},
	})
	if err != nil {
		panic(err)
	}
	m := ttdiag.NewRecoveryManager(plan)
	if _, err := m.Observe([]bool{false, true, true, true, true}); err != nil {
		panic(err)
	}
	fmt.Println(m.Describe())
	if _, err := m.Observe([]bool{false, false, true, true, false}); err != nil {
		panic(err)
	}
	fmt.Println(m.Describe())
	// Output:
	// doors->n4 steer->n1
	// doors->shed steer->n3
}

// ExampleNewMembership runs the Sec. 7 membership variant against a benign
// sender fault: the faulty node is excluded from the agreed view.
func ExampleNewMembership() {
	eng, runners, err := ttdiag.NewMembershipSimulation(ttdiag.SimulationConfig{
		Ls: ttdiag.Staircase(4), AllSendCurrRound: true,
	})
	if err != nil {
		panic(err)
	}
	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 8, 3, 1))
	if err := eng.RunRounds(16); err != nil {
		panic(err)
	}
	v := runners[1].View()
	fmt.Printf("view %d: members %v\n", v.ID, v.Members)
	// Output:
	// view 1: members [1 2 4]
}
