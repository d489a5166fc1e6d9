package experiments

import (
	"fmt"
	"strconv"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/platform"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

func init() {
	register(Experiment{
		ID:    "port-platforms",
		Title: "The identical protocol code on FlexRay/TTP/C/SAFEbus/TT-Ethernet profiles",
		Ref:   "Sec. 10 (portability)",
		Run:   runPortability,
	})
	register(Experiment{
		ID:    "scale-resilience",
		Title: "Resiliency scales with N; the N > 2a+2s+b+1 bound is tight",
		Ref:   "Sec. 1 & Lemma 2",
		Run:   runScaleResilience,
	})
	register(Experiment{
		ID:    "ablate-vote",
		Title: "Ablating the voting rules: tie-break, self-opinion, own-row buffering",
		Ref:   "Sec. 5 design choices",
		Run:   runAblation,
	})
}

// runPortability executes the same fault scenario on every platform profile
// and reports detection outcome and latency — the protocol code is byte-for-
// byte the same, only the profile changes.
func runPortability(p Params) error {
	t := newTable(p.Out)
	t.row("platform", "N", "round", "slot", "dm bytes", "detected", "latency", "audit")
	t.rule(8)
	for _, prof := range platform.All() {
		cl, err := sim.NewOneLaneCluster(prof.ClusterConfig(), 20)
		if err != nil {
			return err
		}
		obedient := make([]int, prof.N)
		for id := 1; id <= prof.N; id++ {
			obedient[id-1] = id
		}
		const faultRound = 6
		cl.AddLaneDisturbance(0, fault.NewTrain(fault.SlotBurst(cl.Schedule(), faultRound, 2, 1)))
		detected := -1
		cl.OnOutput = func(id int, out *core.BatchRoundOutput) {
			if id == 1 && detected < 0 && out.DiagnosedRound == faultRound && out.LaneConsHV(0, prof.N).Get(2) == core.Faulty {
				detected = out.Round
			}
		}
		if err := cl.Run(); err != nil {
			return err
		}
		audit := "pass"
		if err := sim.AuditTheorem1(cl.LaneTruth(0), cl.LaneCollector(0), obedient, 4, 16); err != nil {
			audit = err.Error()
		}
		latency := "-"
		if detected >= 0 {
			latency = fmt.Sprintf("%d rounds (%v)", detected-faultRound,
				time.Duration(detected-faultRound)*cl.Schedule().RoundLen())
		}
		t.row(prof.Name, strconv.Itoa(prof.N), prof.RoundLen.String(), prof.SlotLen().String(),
			strconv.Itoa(core.EncodedLen(prof.N)), strconv.FormatBool(detected >= 0), latency, audit)
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\nonly the profile changes: same protocol, same audits, N-bit messages everywhere")
	return nil
}

// runScaleResilience sweeps the cluster size and the number of coincident
// faults: inside the N > 2a+2s+b+1 bound every audit passes; violating the
// bound (two malicious voters against one correct voter at N = 4) produces
// observable correctness violations.
func runScaleResilience(p Params) error {
	t := newTable(p.Out)
	t.row("N", "a", "s", "b", "bound holds", "runs", "violations")
	t.rule(7)
	src := rng.NewSource(p.Seed)
	// N = 32 and N = 64 reach past the experiment's original N <= 16 cap,
	// every node still on the packed fast path (see scale_wide.go).
	for _, n := range []int{4, 6, 8, 12, 16, 32, 64} {
		for _, c := range resilienceCases(n) {
			a, s, b := c[0], c[1], c[2]
			if a < 0 || s < 0 || b < 0 || !(n > 2*a+2*s+b+1) {
				continue
			}
			violations, err := resilienceRuns(n, a, s, b, p, src)
			if err != nil {
				return err
			}
			t.row(strconv.Itoa(n), strconv.Itoa(a), strconv.Itoa(s), strconv.Itoa(b),
				"yes", strconv.Itoa(p.Runs), strconv.Itoa(violations))
		}
	}
	// Bound violation: N=4 with two malicious syndrome sources
	// (4 > 2*2+1 is false) — correct nodes get convicted.
	violations, err := resilienceRuns(4, 0, 2, 0, p, src)
	if err != nil {
		return err
	}
	t.row("4", "0", "2", "0", "NO", strconv.Itoa(p.Runs), strconv.Itoa(violations))
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\ninside the bound: zero violations; outside it, two colluding random syndromes outvote the single correct witness")
	return nil
}

// resilienceCases lists the scale-resilience fault mixes (a, s, b) of an
// n-node cluster: the largest tolerable counts of s alone and b alone, and
// two mixes with one asymmetric fault. The sweep skips any mix outside the
// N > 2a+2s+b+1 bound.
func resilienceCases(n int) [][3]int {
	sMax := (n - 2) / 2
	bMax := n - 2
	return [][3]int{
		{0, sMax, 0},
		{0, 0, bMax},
		{1, 0, n - 4},
		{1, (n - 4) / 2, 0},
	}
}

// voteRule recomputes a verdict for target j from a diagnostic matrix under
// one of the ablated voting policies.
type voteRule func(m *core.Matrix, j int) (core.Opinion, bool)

// ablationRules returns the paper's rule and its three ablations. The
// observer parameter matters only for the own-row ablation, which discards
// the observer's locally buffered row to emulate a pure loop-back design.
func ablationRules(observer int) map[string]voteRule {
	return map[string]voteRule{
		"paper (Eqn. 1, self discarded, own row buffered)": func(m *core.Matrix, j int) (core.Opinion, bool) {
			return m.Vote(j)
		},
		"ablate: tie-break to Faulty": func(m *core.Matrix, j int) (core.Opinion, bool) {
			var f, h int
			for _, v := range m.Column(j) {
				switch v {
				case core.Faulty:
					f++
				case core.Healthy:
					h++
				}
			}
			if f+h == 0 {
				return core.Erased, false
			}
			if f >= h {
				return core.Faulty, true
			}
			return core.Healthy, true
		},
		"ablate: trust self-opinion": func(m *core.Matrix, j int) (core.Opinion, bool) {
			votes := append([]core.Opinion{m.Opinion(j, j)}, m.Column(j)...)
			return core.HMaj(votes)
		},
		"ablate: no own-row buffering (loop-back only)": func(m *core.Matrix, j int) (core.Opinion, bool) {
			var votes []core.Opinion
			for row := 1; row <= m.N(); row++ {
				if row == j || row == observer {
					continue
				}
				votes = append(votes, m.Opinion(row, j))
			}
			return core.HMaj(votes)
		},
	}
}

// ablationRuleOrder fixes the rendering order.
var ablationRuleOrder = []string{
	"paper (Eqn. 1, self discarded, own row buffered)",
	"ablate: tie-break to Faulty",
	"ablate: trust self-opinion",
	"ablate: no own-row buffering (loop-back only)",
}

// runAblation replays recorded diagnostic matrices under modified voting
// rules and counts property violations, justifying the design choices of
// Sec. 5:
//
//   - tie-break to Healthy (Eqn. 1's "else 1") — ties produced by a
//     malicious vote against a thinned column must not convict;
//   - discarding the diagnosed node's self-opinion — the only row that can
//     legally differ between obedient observers (an asymmetric sender's own
//     dissemination) must not influence its own verdict, or observers
//     diverge;
//   - buffering one's own row locally (Lemma 3) — without it a blackout
//     leaves every column undecidable.
//
// The scenario stays within the fault hypothesis for the paper's rules, so
// the paper row must be spotless while each ablation breaks a property.
func runAblation(p Params) error {
	eng, runners, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
		Ls: sim.Staircase(4), AllSendCurrRound: true,
	})
	if err != nil {
		return err
	}
	stream := rng.NewSource(p.Seed).Stream("ablate")
	// Malicious syndromes from node 2 up to round 13; benign single-slot
	// faults on node 3 (each burst erases node 3's row for the preceding
	// diagnosed round and makes round r itself benign-faulty); a double
	// asymmetric SOS episode of node 3 at rounds 14/15 (honest voters only,
	// so the self-opinion divergence is deterministic); a blackout at
	// rounds 18-19.
	mal := fault.NewMaliciousSyndrome(2, stream)
	mal.ToRound = 13
	eng.Bus().AddDisturbance(mal)
	var bursts []fault.Burst
	for _, r := range []int{6, 8, 10, 12} {
		bursts = append(bursts, fault.SlotBurst(eng.Schedule(), r, 3, 1))
	}
	bursts = append(bursts, fault.Blackout(eng.Schedule(), 18, 2))
	eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
	eng.Bus().AddDisturbance(fault.SOS{Sender: 3, Victims: []tdma.NodeID{1, 2}, FromRound: 14, ToRound: 15})
	eng.Bus().AddDisturbance(fault.SOS{Sender: 3, Victims: []tdma.NodeID{4}, FromRound: 15, ToRound: 16})

	// Collect every observer's matrix and agreed health vector per
	// diagnosed round; the paper rule is scored on the protocol's actual
	// ConsHV (which includes the collision-detector fallback of Lemma 3),
	// the ablations on re-votes over the recorded matrices.
	type obsRecord struct {
		m  *core.Matrix
		hv core.BitSyndrome
	}
	records := make(map[int]map[int]obsRecord) // diagRound -> observer -> record
	for id := 1; id <= 4; id++ {
		id := id
		proto := runners[id].Protocol()
		runners[id].OnOutput = func(out core.RoundOutput) {
			m := proto.Matrix()
			if m == nil {
				return
			}
			byObs := records[out.DiagnosedRound]
			if byObs == nil {
				byObs = make(map[int]obsRecord)
				records[out.DiagnosedRound] = byObs
			}
			byObs[id] = obsRecord{m: m, hv: out.ConsHV}
		}
	}
	if err := eng.RunRounds(26); err != nil {
		return err
	}

	type counters struct{ wrongConvictions, missedFaults, undecided, inconsistent int }
	score := make(map[string]*counters, len(ablationRuleOrder))
	for _, name := range ablationRuleOrder {
		score[name] = &counters{}
	}

	verdictOf := func(name string, obs int, rec obsRecord, j int) (core.Opinion, bool) {
		if name == ablationRuleOrder[0] {
			// Paper rule: the value the protocol actually agreed on.
			return rec.hv.Get(j), true
		}
		return ablationRules(obs)[name](rec.m, j)
	}

	for d := 4; d <= 22; d++ {
		byObs := records[d]
		truth := eng.Truth(d)
		if byObs == nil || truth == nil {
			continue
		}
		for _, name := range ablationRuleOrder {
			c := score[name]
			for j := 1; j <= 4; j++ {
				// Verdict at every observer; check agreement across them.
				var ref core.Opinion
				refSet, disagree := false, false
				for obs := 1; obs <= 4; obs++ {
					rec, ok := byObs[obs]
					if !ok {
						continue
					}
					v, decided := verdictOf(name, obs, rec, j)
					if !decided {
						v = core.Erased
					}
					if !refSet {
						ref, refSet = v, true
					} else if v != ref {
						disagree = true
					}
				}
				if disagree {
					c.inconsistent++
				}
				// Property checks at observer 1 (representative).
				v, decided := verdictOf(name, 1, byObs[1], j)
				switch {
				case !decided:
					c.undecided++
				case truth[j] == tdma.OutcomeCorrect && v == core.Faulty:
					c.wrongConvictions++
				case truth[j] == tdma.OutcomeBenign && v == core.Healthy:
					c.missedFaults++
				}
			}
		}
	}

	t := newTable(p.Out)
	t.row("voting rule", "wrong convictions", "missed faults", "undecided", "inconsistent")
	t.rule(5)
	for _, name := range ablationRuleOrder {
		c := score[name]
		t.row(name, strconv.Itoa(c.wrongConvictions), strconv.Itoa(c.missedFaults),
			strconv.Itoa(c.undecided), strconv.Itoa(c.inconsistent))
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\nonly the paper's combination of rules leaves every property intact")
	return nil
}
