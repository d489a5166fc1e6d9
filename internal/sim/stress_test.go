package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
)

// TestStressRandomNoiseConsistency runs 2000 rounds under independent
// random transmission noise with isolation disabled. Benign-only faults are
// the generalised Lemma 3 regime: however heavy the noise, every decided
// vote is backed only by correct (hence identical) syndromes, so all nodes
// must agree on every health vector, at any fault load.
func TestStressRandomNoiseConsistency(t *testing.T) {
	for _, noiseProb := range []float64{0.02, 0.2, 0.6} {
		eng, runners, err := NewDiagnosticCluster(ClusterConfig{Ls: []int{2, 0, 3, 1}})
		if err != nil {
			t.Fatal(err)
		}
		eng.Bus().AddDisturbance(fault.NewRandomNoise(noiseProb, rng.NewStream(int64(noiseProb*1000))))
		col := NewCollector()
		for id := 1; id <= 4; id++ {
			col.HookDiag(id, runners[id])
		}
		const rounds = 2000
		if err := eng.RunRounds(rounds); err != nil {
			t.Fatal(err)
		}
		for d := 3; d < rounds-4; d++ {
			ref := col.HV(d, 1)
			if ref.Known == 0 {
				t.Fatalf("noise %v: no vectors for round %d", noiseProb, d)
			}
			for obs := 2; obs <= 4; obs++ {
				if hv := col.HV(d, obs); hv != ref {
					t.Fatalf("noise %v round %d: consistency violated: %s vs %s",
						noiseProb, d, ref.String(4), hv.String(4))
				}
			}
		}
	}
}

// TestStressRandomNoiseIsolationAgreement enables isolation under heavy
// noise. Isolation decisions must be agreed by every observer that is still
// part of the system when they fire: once a node is isolated its own
// protocol state may legitimately diverge (the system has excluded it), so
// only the observers active at decision time are held to agreement.
func TestStressRandomNoiseIsolationAgreement(t *testing.T) {
	eng, runners, err := NewDiagnosticCluster(ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 50, RewardThreshold: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(fault.NewRandomNoise(0.2, rng.NewStream(42)))
	col := NewCollector()
	for id := 1; id <= 4; id++ {
		col.HookDiag(id, runners[id])
	}
	if err := eng.RunRounds(2000); err != nil {
		t.Fatal(err)
	}
	if len(col.Isolations) == 0 {
		t.Fatal("20% noise never isolated anyone over 2000 rounds")
	}
	// isolatedAt[x] = earliest round any observer isolated x.
	isolatedAt := make(map[int]int)
	for _, iso := range col.Isolations {
		if r, ok := isolatedAt[iso.Node]; !ok || iso.Round < r {
			isolatedAt[iso.Node] = iso.Round
		}
	}
	for _, iso := range col.Isolations {
		// The observer itself must not have been isolated before this
		// decision round; otherwise its opinion no longer binds.
		if obsIso, ok := isolatedAt[iso.Observer]; ok && obsIso < isolatedAt[iso.Node] {
			continue
		}
		if iso.Round != isolatedAt[iso.Node] {
			t.Fatalf("active observer %d isolated node %d at round %d, first decision was %d",
				iso.Observer, iso.Node, iso.Round, isolatedAt[iso.Node])
		}
	}
	// Counter invariants at every node.
	for id := 1; id <= 4; id++ {
		pr := runners[id].Protocol().PenaltyReward()
		for j := 1; j <= 4; j++ {
			if pr.Penalty(j) < 0 || pr.Reward(j) < 0 {
				t.Fatal("negative counter")
			}
			if pr.IsActive(j) && pr.Penalty(j) > 50 {
				t.Fatal("active node beyond threshold")
			}
		}
	}
}

// TestStressMixedFaultSoup combines fault classes far beyond the Theorem 1
// bound for 600 rounds: background noise, periodic one-round bursts, a
// permanent crash and a malicious syndrome source. Outside the bound even
// consistency may legitimately fail (a malicious row can tip thin matrices
// differently against different observers' own-row knowledge), so the test
// asserts only the unconditional invariants: the run completes, the
// counters stay legal, and the permanently crashed node is isolated by
// every observer and stays isolated.
func TestStressMixedFaultSoup(t *testing.T) {
	eng, runners, err := NewDiagnosticCluster(ClusterConfig{
		Ls: Staircase(4), AllSendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 100, RewardThreshold: 50, ReintegrationThreshold: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(77)
	eng.Bus().AddDisturbance(fault.NewRandomNoise(0.05, src.Stream("noise")))
	eng.Bus().AddDisturbance(fault.NewMaliciousSyndrome(2, src.Stream("mal")))
	eng.Bus().AddDisturbance(fault.Periodic(0, eng.Schedule().RoundLen(), 40*eng.Schedule().RoundLen(), 12))
	eng.Bus().AddDisturbance(fault.Crash(4, 500))

	col := NewCollector()
	for id := 1; id <= 4; id++ {
		col.HookDiag(id, runners[id])
	}
	const rounds = 600
	if err := eng.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	// The crashed node must eventually be isolated by every observer.
	crashedIso := map[int]bool{}
	for _, iso := range col.Isolations {
		if iso.Node == 4 {
			crashedIso[iso.Observer] = true
		}
	}
	if len(crashedIso) != 4 {
		t.Fatalf("crashed node isolated by observers %v, want all 4", crashedIso)
	}
	for id := 1; id <= 4; id++ {
		pr := runners[id].Protocol().PenaltyReward()
		if pr.IsActive(4) {
			t.Fatalf("observer %d reintegrated the permanently crashed node", id)
		}
		for j := 1; j <= 4; j++ {
			if pr.Penalty(j) < 0 || pr.Reward(j) < 0 {
				t.Fatal("negative counter")
			}
			if pr.Reward(j) >= 50 {
				t.Fatalf("reward %d not reset at threshold", pr.Reward(j))
			}
		}
	}
}
