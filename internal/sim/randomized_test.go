package sim

import (
	"fmt"
	"testing"
	"time"

	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// randomScenario describes one generated within-bound fault mix.
type randomScenario struct {
	n        int
	ls       []int
	a, s, b  int
	obedient []int
	arm      func(eng *Engine)
}

// generateScenario draws a cluster size, a node schedule and a fault mix
// that satisfies core.Tolerates — the generator side of a property test for
// Theorem 1.
func generateScenario(st *rng.Stream) randomScenario {
	n := 4 + st.Intn(9) // 4..12
	ls := make([]int, n)
	for i := range ls {
		ls[i] = st.Intn(n)
	}
	// Draw (a,s,b) uniformly until within Lemma 2's fault hypothesis,
	// N > 2a + 2s + b + 1 with a <= 1 (rejection sampling with a
	// guaranteed fallback to a single benign fault).
	var a, s, b int
	for tries := 0; ; tries++ {
		a, s, b = st.Intn(2), st.Intn(3), st.Intn(n-1)
		if a <= 1 && n > 2*a+2*s+b+1 {
			break
		}
		if tries > 32 {
			a, s, b = 0, 0, 1
			break
		}
	}
	sc := randomScenario{n: n, ls: ls, a: a, s: s, b: b}
	const faultRound = 8
	// Fault roles on distinct nodes 1..(s+b+a).
	node := 1
	malicious := make([]tdma.NodeID, 0, s)
	for i := 0; i < s; i++ {
		malicious = append(malicious, tdma.NodeID(node))
		node++
	}
	benign := make([]int, 0, b)
	for i := 0; i < b; i++ {
		benign = append(benign, node)
		node++
	}
	asym := make([]tdma.NodeID, 0, a)
	for i := 0; i < a; i++ {
		asym = append(asym, tdma.NodeID(node))
		node++
	}
	for id := 1; id <= n; id++ {
		isMal := false
		for _, m := range malicious {
			if int(m) == id {
				isMal = true
			}
		}
		if !isMal {
			sc.obedient = append(sc.obedient, id)
		}
	}
	seedStr := st.Uint64()
	sc.arm = func(eng *Engine) {
		for i, m := range malicious {
			eng.Bus().AddDisturbance(fault.NewMaliciousSyndrome(m,
				rng.NewSource(int64(seedStr)).Stream(fmt.Sprintf("mal-%d", i))))
		}
		var bursts []fault.Burst
		for _, bn := range benign {
			bursts = append(bursts, fault.SlotBurst(eng.Schedule(), faultRound, bn, 1))
		}
		if len(bursts) > 0 {
			eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
		}
		for _, an := range asym {
			victim := tdma.NodeID(int(an)%sc.n + 1)
			eng.Bus().AddDisturbance(fault.SOS{
				Sender: an, Victims: []tdma.NodeID{victim},
				FromRound: faultRound, ToRound: faultRound + 1,
			})
		}
	}
	return sc
}

// TestRandomizedWithinBoundCampaign is the integration-level property test
// of Theorem 1: 60 generated scenarios with random cluster sizes, random
// node schedules and random fault mixes inside N > 2a+2s+b+1 must all pass
// the correctness/completeness/consistency audit.
func TestRandomizedWithinBoundCampaign(t *testing.T) {
	st := rng.NewSource(20071).Stream("campaign")
	for trial := 0; trial < 60; trial++ {
		sc := generateScenario(st)
		eng, runners, err := NewDiagnosticCluster(ClusterConfig{
			N:        sc.n,
			RoundLen: DefaultRoundLen * time.Duration(sc.n) / 4,
			Ls:       sc.ls,
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d ls=%v): %v", trial, sc.n, sc.ls, err)
		}
		col := NewCollector()
		for id := 1; id <= sc.n; id++ {
			col.HookDiag(id, runners[id])
		}
		sc.arm(eng)
		if err := eng.RunRounds(20); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := AuditTheorem1(eng, col, sc.obedient, 4, 16); err != nil {
			t.Fatalf("trial %d (n=%d a=%d s=%d b=%d ls=%v): %v",
				trial, sc.n, sc.a, sc.s, sc.b, sc.ls, err)
		}
	}
}

// TestRandomizedMembershipCampaign property-checks Theorem 2: random single
// asymmetric receive faults at random rounds, random schedules — every
// obedient node must install identical views within the liveness bound.
func TestRandomizedMembershipCampaign(t *testing.T) {
	st := rng.NewSource(414).Stream("membership")
	for trial := 0; trial < 40; trial++ {
		ls := make([]int, 4)
		for i := range ls {
			ls[i] = st.Intn(4)
		}
		eng, runners, err := NewMembershipCluster(ClusterConfig{Ls: ls})
		if err != nil {
			t.Fatal(err)
		}
		faultRound := 6 + st.Intn(6)
		victim := tdma.NodeID(1 + st.Intn(4))
		sender := tdma.NodeID(1 + st.Intn(4))
		for sender == victim {
			sender = tdma.NodeID(1 + st.Intn(4))
		}
		eng.Bus().AddDisturbance(fault.ReceiverBlind{
			Receiver: victim, Senders: []tdma.NodeID{sender},
			FromRound: faultRound, ToRound: faultRound + 1,
		})
		if err := eng.RunRounds(faultRound + 16); err != nil {
			t.Fatal(err)
		}
		lag := runners[1].Service().Protocol().Config().Lag()
		if err := auditTheorem2(runners, obedientAll(4), faultRound, lag); err != nil {
			t.Fatalf("trial %d (ls=%v victim=%d sender=%d round=%d): %v",
				trial, ls, victim, sender, faultRound, err)
		}
		// The minority clique is exactly {victim}.
		v := runners[1].View()
		if len(v.Members) != 3 || v.Contains(int(victim)) {
			t.Fatalf("trial %d: view %v, want all but %d", trial, v.Members, victim)
		}
	}
}
