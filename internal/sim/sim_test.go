package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

func obedientAll(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func mustDiagCluster(t *testing.T, cfg ClusterConfig) (*Engine, []*DiagRunner, *Collector) {
	t.Helper()
	eng, runners, err := NewDiagnosticCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	for id := 1; id <= eng.Schedule().N(); id++ {
		col.HookDiag(id, runners[id])
	}
	return eng, runners, col
}

func TestFaultFreeClusterAudit(t *testing.T) {
	schedules := map[string]ClusterConfig{
		"staircase_all_scr": {Ls: Staircase(4), AllSendCurrRound: true},
		"uniform_end":       {Ls: Uniform(4, 3)},
		"mixed":             {Ls: []int{2, 0, 3, 1}},
	}
	for name, cfg := range schedules {
		t.Run(name, func(t *testing.T) {
			eng, _, col := mustDiagCluster(t, cfg)
			if err := eng.RunRounds(20); err != nil {
				t.Fatal(err)
			}
			if err := AuditTheorem1(eng, col, obedientAll(4), 4, 16); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSec8BurstClasses reproduces the twelve burst experiment classes of the
// validation campaign (Sec. 8): bursts of one slot, two slots and two whole
// TDMA rounds, starting at each of the four sending slots, and audits
// Theorem 1 on every diagnosed round.
func TestSec8BurstClasses(t *testing.T) {
	const injectRound = 6
	for _, slots := range []int{1, 2, 8} {
		for startSlot := 1; startSlot <= 4; startSlot++ {
			name := fmt.Sprintf("burst_%dslots_start%d", slots, startSlot)
			t.Run(name, func(t *testing.T) {
				eng, _, col := mustDiagCluster(t, ClusterConfig{Ls: []int{2, 0, 3, 1}})
				eng.Bus().AddDisturbance(fault.NewTrain(
					fault.SlotBurst(eng.Schedule(), injectRound, startSlot, slots),
				))
				if err := eng.RunRounds(24); err != nil {
					t.Fatal(err)
				}
				if err := AuditTheorem1(eng, col, obedientAll(4), 4, 20); err != nil {
					t.Fatal(err)
				}
				// The injected slots really were benign faulty and diagnosed.
				corrupted := 0
				for d := injectRound; d <= injectRound+3; d++ {
					for slot := 1; slot <= 4; slot++ {
						if eng.Truth(d)[slot] == tdma.OutcomeBenign {
							corrupted++
						}
					}
				}
				if corrupted != slots {
					t.Fatalf("ground truth shows %d corrupted slots, want %d", corrupted, slots)
				}
			})
		}
	}
}

// TestCommunicationBlackout checks the Lemma 3 regime end-to-end: two whole
// rounds of blackout; every node self-diagnoses through its collision
// detector and diagnosis stays complete, correct and consistent.
func TestCommunicationBlackout(t *testing.T) {
	eng, _, col := mustDiagCluster(t, ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true})
	eng.Bus().AddDisturbance(fault.NewTrain(fault.Blackout(eng.Schedule(), 6, 2)))
	if err := eng.RunRounds(20); err != nil {
		t.Fatal(err)
	}
	if err := AuditTheorem1(eng, col, obedientAll(4), 4, 16); err != nil {
		t.Fatal(err)
	}
	hv := col.ConsHV[6][2]
	if hv.String(4) != "0000" {
		t.Fatalf("blackout round diagnosed as %s, want 0000", hv.String(4))
	}
}

// TestMaliciousNodeClasses reproduces the four Sec. 8 malicious-node
// experiment classes: any of the four nodes sends random syndromes; the
// other nodes must never diagnose a correct node as faulty.
func TestMaliciousNodeClasses(t *testing.T) {
	for malNode := 1; malNode <= 4; malNode++ {
		t.Run(fmt.Sprintf("malicious_node_%d", malNode), func(t *testing.T) {
			eng, _, col := mustDiagCluster(t, ClusterConfig{Ls: []int{2, 0, 3, 1}})
			eng.Bus().AddDisturbance(fault.NewMaliciousSyndrome(
				tdma.NodeID(malNode), rng.NewSource(7).Stream("malicious")))
			if err := eng.RunRounds(30); err != nil {
				t.Fatal(err)
			}
			// The malicious node's own protocol inputs are genuine, but its
			// *disseminated* payloads are garbage; obedient observers are
			// the other three nodes.
			var obedient []int
			for id := 1; id <= 4; id++ {
				if id != malNode {
					obedient = append(obedient, id)
				}
			}
			if err := AuditTheorem1(eng, col, obedient, 4, 26); err != nil {
				t.Fatal(err)
			}
			// No node was ever convicted: malicious frames are locally
			// undetectable, so ground truth stays "malicious", and Theorem 1
			// guarantees agreement; additionally no conviction may happen.
			for d := 4; d < 26; d++ {
				hv := col.ConsHV[d][obedient[0]]
				if hv.CountFaulty(4) != 0 {
					t.Fatalf("round %d: malicious node induced conviction: %s", d, hv.String(4))
				}
			}
		})
	}
}

// TestPenaltyRewardCampaign mirrors the Sec. 8 p/r experiment: a fault in
// node 2's slot every second round for 20 rounds; penalty and reward
// counters alternate and all nodes agree on them.
func TestPenaltyRewardCampaign(t *testing.T) {
	eng, runners, _ := mustDiagCluster(t, ClusterConfig{
		Ls: Staircase(4), AllSendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 1 << 30, RewardThreshold: 100},
	})
	var bursts []fault.Burst
	for r := 10; r < 30; r += 2 {
		bursts = append(bursts, fault.SlotBurst(eng.Schedule(), r, 2, 1))
	}
	eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
	if err := eng.RunRounds(40); err != nil {
		t.Fatal(err)
	}
	pr := runners[1].Protocol().PenaltyReward()
	if got := pr.Penalty(2); got != 10 {
		t.Fatalf("penalty(2) = %d, want 10 (one per faulty round)", got)
	}
	for id := 2; id <= 4; id++ {
		if got := runners[id].Protocol().PenaltyReward().Penalty(2); got != 10 {
			t.Fatalf("node %d sees penalty %d, want 10", id, got)
		}
	}
	for j := 1; j <= 4; j++ {
		if j != 2 && pr.Penalty(j) != 0 {
			t.Fatalf("penalty(%d) = %d, want 0", j, pr.Penalty(j))
		}
	}
}

// TestIsolationStopsTraffic checks the full loop: a crashed node is isolated
// by the p/r algorithm in the same round everywhere, and afterwards its
// traffic is ignored by every controller.
func TestIsolationStopsTraffic(t *testing.T) {
	eng, runners, col := mustDiagCluster(t, ClusterConfig{
		Ls: []int{2, 0, 3, 1},
		PR: core.PRConfig{PenaltyThreshold: 5, RewardThreshold: 10},
	})
	eng.Bus().AddDisturbance(fault.Crash(4, 8))
	if err := eng.RunRounds(30); err != nil {
		t.Fatal(err)
	}
	if len(col.Isolations) != 4 {
		t.Fatalf("got %d isolation decisions, want 4 (one per node): %+v", len(col.Isolations), col.Isolations)
	}
	round := col.Isolations[0].Round
	for _, iso := range col.Isolations {
		if iso.Node != 4 {
			t.Fatalf("isolated node %d, want 4", iso.Node)
		}
		if iso.Round != round {
			t.Fatalf("isolation rounds disagree: %+v", col.Isolations)
		}
	}
	// Crash at round 8, P=5: sixth faulty diagnosed round is 13, decision
	// executes at round 13+lag(3) = 16.
	if round != 16 {
		t.Fatalf("isolation at round %d, want 16", round)
	}
	for id := 1; id <= 3; id++ {
		if !eng.Controller(tdma.NodeID(id)).Ignored(4) {
			t.Fatalf("node %d does not ignore isolated node 4", id)
		}
	}
	if a := runners[1].Last().Active; a&1 == 0 || a&(1<<3) != 0 {
		t.Fatalf("activity vector wrong: %04b", a)
	}
}

// TestReintegrationLoop exercises the observation/reintegration extension on
// the full stack: a node suffers a transient burst, gets isolated by an
// aggressive threshold, then recovers and is reintegrated everywhere.
func TestReintegrationLoop(t *testing.T) {
	eng, runners, col := mustDiagCluster(t, ClusterConfig{
		Ls: Staircase(4), AllSendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 10, ReintegrationThreshold: 6},
	})
	var bursts []fault.Burst
	for r := 6; r < 12; r++ {
		bursts = append(bursts, fault.SlotBurst(eng.Schedule(), r, 3, 1))
	}
	eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
	if err := eng.RunRounds(40); err != nil {
		t.Fatal(err)
	}
	if len(col.Isolations) != 4 {
		t.Fatalf("isolations: %+v", col.Isolations)
	}
	if len(col.Reintegrations) != 4 {
		t.Fatalf("reintegrations: %+v", col.Reintegrations)
	}
	for _, re := range col.Reintegrations {
		if re.Node != 3 {
			t.Fatalf("reintegrated node %d, want 3", re.Node)
		}
		if re.Round != col.Reintegrations[0].Round {
			t.Fatalf("reintegration rounds disagree: %+v", col.Reintegrations)
		}
	}
	// After reintegration node 3's traffic is heard again.
	if eng.Controller(1).Ignored(3) {
		t.Fatal("node 1 still ignores reintegrated node 3")
	}
	if runners[2].Last().Active&(1<<2) == 0 {
		t.Fatal("node 3 not active after reintegration")
	}
}

// TestMembershipCliqueDetection reproduces the Sec. 8 clique experiment: the
// disturbance sits between node 1 and the rest of the cluster, so node 1
// misses node 2's broadcast (an asymmetric fault) and forms a minority
// clique. The membership protocol must accuse node 1 and install a new view
// {2,3,4} at every obedient node within two protocol executions.
func TestMembershipCliqueDetection(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
	}{
		{name: "all_scr", cfg: ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true}},
		{name: "mixed", cfg: ClusterConfig{Ls: []int{2, 0, 3, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, runners, err := NewMembershipCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const faultRound = 8
			eng.Bus().AddDisturbance(fault.ReceiverBlind{
				Receiver: 1, Senders: []tdma.NodeID{2},
				FromRound: faultRound, ToRound: faultRound + 1,
			})
			if err := eng.RunRounds(30); err != nil {
				t.Fatal(err)
			}
			lag := runners[1].Service().Protocol().Config().Lag()
			if err := AuditTheorem2(runners, obedientAll(4), faultRound, lag); err != nil {
				t.Fatal(err)
			}
			for id := 1; id <= 4; id++ {
				if got, want := fmt.Sprint(runners[id].View().Members), "[2 3 4]"; got != want {
					t.Fatalf("node %d: view members %v, want %v", id, got, want)
				}
			}
		})
	}
}

// TestMembershipBenignFaultView: a plain benign sender fault also triggers a
// view excluding the faulty sender (first case of Theorem 2).
func TestMembershipBenignFaultView(t *testing.T) {
	eng, runners, err := NewMembershipCluster(ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 8, 3, 1)))
	if err := eng.RunRounds(20); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		v := runners[id].View()
		if got, want := fmt.Sprint(v.Members), "[1 2 4]"; got != want {
			t.Fatalf("node %d: view %v, want %v", id, got, want)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	sched := tdma.MustSchedule(4, 2500*time.Microsecond)
	eng := NewEngine(sched, nil)
	r, err := NewDiagRunner(core.Config{N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddNode(0, 0, r); err == nil {
		t.Error("node 0 accepted")
	}
	if err := eng.AddNode(1, 7, r); err == nil {
		t.Error("bad job position accepted")
	}
	if err := eng.AddNode(1, 0, r); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddNode(1, 0, r); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := eng.RunRound(); err == nil {
		t.Error("RunRound with missing nodes accepted")
	}
	if eng.Controller(9) != nil || eng.Controller(2) != nil {
		t.Error("Controller returned non-nil for missing node")
	}
	if eng.Truth(0) != nil {
		t.Error("Truth for unexecuted round not nil")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, _, err := NewDiagnosticCluster(ClusterConfig{N: 1}); err == nil {
		t.Error("1-node cluster accepted")
	}
	if _, _, err := NewDiagnosticCluster(ClusterConfig{N: 4, Ls: []int{0}}); err == nil {
		t.Error("short Ls accepted")
	}
	if _, _, err := NewDiagnosticCluster(ClusterConfig{N: 4, Ls: Uniform(4, 3), AllSendCurrRound: true}); err == nil {
		t.Error("AllSendCurrRound with job-after-slot schedule accepted")
	}
	if _, _, err := NewMembershipCluster(ClusterConfig{N: 4, Ls: []int{0}}); err == nil {
		t.Error("membership cluster with short Ls accepted")
	}
}

func TestJobTimeGeometry(t *testing.T) {
	eng, _, _ := mustDiagCluster(t, ClusterConfig{})
	slot := eng.Schedule().SlotLen()
	if got := eng.JobTime(0, 0); got != 0 {
		t.Errorf("JobTime(0,0) = %v", got)
	}
	if got, want := eng.JobTime(2, 3), eng.Schedule().RoundStart(2)+3*slot; got != want {
		t.Errorf("JobTime(2,3) = %v, want %v", got, want)
	}
}

func TestCollectorFirstIsolation(t *testing.T) {
	col := NewCollector()
	if col.FirstIsolation(1) != -1 {
		t.Error("empty collector returned an isolation")
	}
	col.Isolations = []Isolation{{Observer: 2, Node: 1, Round: 9}, {Observer: 1, Node: 1, Round: 7}}
	if got := col.FirstIsolation(1); got != 7 {
		t.Errorf("FirstIsolation = %d, want 7", got)
	}
	sched := tdma.MustSchedule(4, 2500*time.Microsecond)
	if got := col.FirstIsolationTime(1, sched); got != sched.RoundStart(7) {
		t.Errorf("FirstIsolationTime = %v", got)
	}
	if got := col.FirstIsolationTime(3, sched); got != -1 {
		t.Errorf("FirstIsolationTime(no isolation) = %v", got)
	}
}

func TestEngineTracesJobs(t *testing.T) {
	var rec trace.Recorder
	eng, _, _ := mustDiagCluster(t, ClusterConfig{Sink: &rec})
	if err := eng.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	jobs := rec.Filter(trace.KindJobRun)
	if len(jobs) != 8 {
		t.Fatalf("recorded %d job events, want 8", len(jobs))
	}
	txs := rec.Filter(trace.KindTransmit)
	if len(txs) != 8 {
		t.Fatalf("recorded %d transmit events, want 8", len(txs))
	}
}

// TestHeterogeneousSlotCluster runs the full protocol on an ARINC-659-style
// schedule with per-slot frame lengths: the protocol layer is agnostic, so
// detection and audits behave exactly as on uniform schedules.
func TestHeterogeneousSlotCluster(t *testing.T) {
	eng, _, col := mustDiagCluster(t, ClusterConfig{
		SlotLens: []time.Duration{
			250 * time.Microsecond,
			time.Millisecond,
			500 * time.Microsecond,
			750 * time.Microsecond,
		},
		Ls: []int{2, 0, 3, 1},
	})
	if !eng.Schedule().Uniform() {
		// expected: custom schedule
	} else {
		t.Fatal("custom schedule not applied")
	}
	eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 6, 2, 1)))
	if err := eng.RunRounds(20); err != nil {
		t.Fatal(err)
	}
	if err := AuditTheorem1(eng, col, obedientAll(4), 4, 16); err != nil {
		t.Fatal(err)
	}
	hv := col.ConsHV[6][1]
	if hv.String(4) != "1011" {
		t.Fatalf("cons_hv(6) = %s, want 1011", hv.String(4))
	}
	if _, _, err := NewDiagnosticCluster(ClusterConfig{SlotLens: []time.Duration{time.Millisecond}}); err == nil {
		t.Fatal("short SlotLens accepted")
	}
}

// TestAdversarialMaliciousAtTheBoundEdge runs the strongest symmetric-
// malicious strategy (accuse everyone, absolve self) exactly at the Lemma 2
// margin: one adversary at N=4 (one-vote margin) and two adversaries at N=6.
// Correct nodes must never be convicted and diagnosis stays consistent.
func TestAdversarialMaliciousAtTheBoundEdge(t *testing.T) {
	cases := []struct {
		n           int
		adversaries []int
	}{
		{n: 4, adversaries: []int{2}},
		{n: 6, adversaries: []int{1, 4}},
	}
	for _, tc := range cases {
		eng, runners, err := NewDiagnosticCluster(ClusterConfig{
			N: tc.n, RoundLen: sim4RoundLen(tc.n), Ls: Uniform(tc.n, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		col := NewCollector()
		for id := 1; id <= tc.n; id++ {
			col.HookDiag(id, runners[id])
		}
		for _, adv := range tc.adversaries {
			eng.Bus().AddDisturbance(fault.AdversarialSyndrome{Node: tdma.NodeID(adv), N: tc.n})
		}
		if err := eng.RunRounds(24); err != nil {
			t.Fatal(err)
		}
		var obedient []int
		for id := 1; id <= tc.n; id++ {
			isAdv := false
			for _, adv := range tc.adversaries {
				if id == adv {
					isAdv = true
				}
			}
			if !isAdv {
				obedient = append(obedient, id)
			}
		}
		if err := AuditTheorem1(eng, col, obedient, 4, 20); err != nil {
			t.Fatalf("n=%d adversaries=%v: %v", tc.n, tc.adversaries, err)
		}
		for d := 4; d < 20; d++ {
			if hv := col.ConsHV[d][obedient[0]]; hv.CountFaulty(tc.n) != 0 {
				t.Fatalf("n=%d: adversaries convicted someone: %s", tc.n, hv.String(tc.n))
			}
		}
	}
}

// sim4RoundLen scales the 2.5 ms round to n slots of 625 µs.
func sim4RoundLen(n int) time.Duration {
	return DefaultRoundLen * time.Duration(n) / 4
}

// failingRunner errors on a chosen round, verifying error propagation
// through the engine.
type failingRunner struct{ failAt int }

func (f failingRunner) Run(round int, _ *tdma.Controller) ([]byte, error) {
	if round == f.failAt {
		return nil, fmt.Errorf("boom at round %d", round)
	}
	return []byte{0x0f}, nil
}

func TestEnginePropagatesRunnerErrors(t *testing.T) {
	sched := tdma.MustSchedule(4, 2500*time.Microsecond)
	eng := NewEngine(sched, nil)
	for id := 1; id <= 4; id++ {
		r := Runner(failingRunner{failAt: -1})
		if id == 3 {
			r = failingRunner{failAt: 2}
		}
		if err := eng.AddNode(tdma.NodeID(id), 0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	err := eng.RunRound()
	if err == nil || !strings.Contains(err.Error(), "boom at round 2") {
		t.Fatalf("runner error not propagated: %v", err)
	}
}

func TestCollectorHookMembership(t *testing.T) {
	eng, runners, err := NewMembershipCluster(ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	for id := 1; id <= 4; id++ {
		col.HookMembership(id, runners[id])
	}
	eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), 6, 2, 1)))
	if err := eng.RunRounds(14); err != nil {
		t.Fatal(err)
	}
	if err := AuditTheorem1(eng, col, obedientAll(4), 3, 10); err != nil {
		t.Fatal(err)
	}
	if runners[2].Last().View.ID != 1 {
		t.Fatalf("membership Last() view = %+v", runners[2].Last().View)
	}
	if got := col.ConsHV[6][3]; got.String(4) != "1011" {
		t.Fatalf("membership collector hv = %s", got.String(4))
	}
}

func TestNormalizeAndNodeConfigExports(t *testing.T) {
	cfg, err := NormalizeConfig(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N != 4 || len(cfg.Ls) != 4 {
		t.Fatalf("normalized config %+v", cfg)
	}
	nc := NodeConfig(cfg, 2)
	if nc.ID != 2 || nc.N != 4 || !nc.SendCurrRound {
		t.Fatalf("node config %+v", nc)
	}
	if _, err := NormalizeConfig(ClusterConfig{N: 1}); err == nil {
		t.Fatal("invalid config normalized")
	}
}

func TestAuditTheorem2ErrorPaths(t *testing.T) {
	eng, runners, err := NewMembershipCluster(ClusterConfig{Ls: Staircase(4), AllSendCurrRound: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := AuditTheorem2(runners, nil, 0, 2); err == nil {
		t.Error("empty obedient set accepted")
	}
	// No fault, no view change: liveness must be reported violated.
	if err := eng.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	if err := AuditTheorem2(runners, obedientAll(4), 4, 2); err == nil {
		t.Error("missing view change accepted")
	}
}

// TestAuditTheorem1ErrorPaths: observer lists the audit cannot evaluate —
// empty, or naming nodes outside 1..N — are reported as errors instead of
// indexing past the recorded health vectors.
func TestAuditTheorem1ErrorPaths(t *testing.T) {
	eng, _, col := mustDiagCluster(t, ClusterConfig{})
	if err := eng.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		obedient []int
		want     string
	}{
		{"nil", nil, "no obedient observers"},
		{"empty", []int{}, "no obedient observers"},
		{"zero", []int{1, 0}, "observer 0 out of range 1..4"},
		{"negative", []int{-1}, "observer -1 out of range 1..4"},
		{"beyond_n", []int{2, 5}, "observer 5 out of range 1..4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := AuditTheorem1(eng, col, tc.obedient, 4, 6)
			if err == nil || err.Error() != "sim: "+tc.want {
				t.Fatalf("AuditTheorem1(%v) = %v, want %q", tc.obedient, err, tc.want)
			}
		})
	}
	if err := AuditTheorem1(eng, col, obedientAll(4), 4, 6); err != nil {
		t.Fatalf("valid observers rejected: %v", err)
	}
}
