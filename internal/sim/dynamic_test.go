package sim

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
)

// dynPosition builds a per-round position function that wanders within the
// declared side of each node's slot.
func dynPosition(n int, sides []bool, seed int64) func(id, round int) int {
	streams := make([]*rng.Stream, n+1)
	src := rng.NewSource(seed)
	for id := 1; id <= n; id++ {
		streams[id] = src.Stream("dyn")
	}
	// Positions must be deterministic per (id, round): precompute lazily.
	cache := make(map[[2]int]int)
	return func(id, round int) int {
		key := [2]int{id, round}
		if p, ok := cache[key]; ok {
			return p
		}
		var p int
		if sides[id-1] {
			p = streams[id].Intn(id) // 0..id-1: before the slot
		} else {
			p = id + streams[id].Intn(n-id) // id..n-1: after the slot
		}
		cache[key] = p
		return p
	}
}

func TestDynamicSchedulingFaultFree(t *testing.T) {
	sides := []bool{true, false, true, true}
	pos := dynPosition(4, sides, 5)
	eng, runners, err := NewDynamicDiagnosticCluster(ClusterConfig{}, sides, pos)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		if err := eng.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Fault-free: every health vector must be all-healthy and agreed even
	// though the job positions wander (stale entries only matter when the
	// referenced rounds differ in content).
	for id := 1; id <= 4; id++ {
		out := runners[id].Last()
		if out.ConsHV.Known == 0 || out.ConsHV.CountFaulty(4) != 0 {
			t.Fatalf("node %d: cons_hv %+v", id, out.ConsHV)
		}
		if out.ConsHV != runners[1].Last().ConsHV {
			t.Fatalf("health vectors disagree")
		}
	}
}

// TestDynamicSchedulingBenignFault injects a single benign fault under
// wandering schedules: the agreed diagnosis must stay consistent at every
// node and the fault must be detected (the staleness of individual voters is
// outvoted inside the fault margin).
func TestDynamicSchedulingBenignFault(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sides := []bool{true, false, true, true}
		pos := dynPosition(4, sides, seed)
		eng, runners, err := NewDynamicDiagnosticCluster(ClusterConfig{}, sides, pos)
		if err != nil {
			t.Fatal(err)
		}
		const faultRound = 10
		eng.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(eng.Schedule(), faultRound, 3, 1)))
		detections := make(map[int]bool)
		var hvs []core.BitSyndrome
		for id := 1; id <= 4; id++ {
			id := id
			runners[id].OnOutput = func(out core.RoundOutput) {
				if out.ConsHV.Known == 0 || out.DiagnosedRound != faultRound {
					return
				}
				detections[id] = out.ConsHV.Get(3) == core.Faulty
				hvs = append(hvs, out.ConsHV)
			}
		}
		if err := eng.RunRounds(24); err != nil {
			t.Fatal(err)
		}
		if len(hvs) != 4 {
			t.Fatalf("seed %d: %d health vectors for the fault round", seed, len(hvs))
		}
		for _, hv := range hvs[1:] {
			if hv != hvs[0] {
				t.Fatalf("seed %d: consistency violated under dynamic scheduling: %s vs %s", seed, hv.String(4), hvs[0].String(4))
			}
		}
		for id := 1; id <= 4; id++ {
			if !detections[id] {
				t.Fatalf("seed %d: node %d missed the fault", seed, id)
			}
		}
	}
}

func TestDynamicValidation(t *testing.T) {
	sides := []bool{true, true, true, true}
	if _, _, err := NewDynamicDiagnosticCluster(ClusterConfig{}, sides, nil); err == nil {
		t.Error("nil position function accepted")
	}
	if _, _, err := NewDynamicDiagnosticCluster(ClusterConfig{}, []bool{true}, func(id, round int) int { return 0 }); err == nil {
		t.Error("short sides accepted")
	}
	// The last slot's owner cannot run after its own slot.
	badSides := []bool{true, true, true, false}
	if _, _, err := NewDynamicDiagnosticCluster(ClusterConfig{}, badSides, func(id, round int) int { return 0 }); err == nil {
		t.Error("node N scheduled after its slot accepted")
	}
	// AllSendCurrRound with an after-slot node.
	mixed := []bool{true, false, true, true}
	if _, _, err := NewDynamicDiagnosticCluster(ClusterConfig{AllSendCurrRound: true, Ls: Staircase(4)},
		mixed, func(id, round int) int { return 0 }); err == nil {
		t.Error("AllSendCurrRound with after-slot node accepted")
	}
}

// TestDynamicSideCrossingRejected: a position that crosses the node's
// declared side of its sending slot must fail the round.
func TestDynamicSideCrossingRejected(t *testing.T) {
	sides := []bool{true, true, true, true}
	// Node 2 declared before-slot but positioned after it in round 3.
	pos := func(id, round int) int {
		if id == 2 && round == 3 {
			return 3
		}
		return 0
	}
	eng, _, err := NewDynamicDiagnosticCluster(ClusterConfig{}, sides, pos)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.RunRounds(6)
	if err == nil {
		t.Fatal("side-crossing dynamic position accepted")
	}
}

// TestDynamicEquivalentToPinnedStatic: with the read point pinned at round
// start, a dynamic cluster must produce bit-identical health vectors to a
// static cluster with the corresponding l=0 / after-slot schedule.
func TestDynamicEquivalentToPinnedStatic(t *testing.T) {
	sides := []bool{true, false, true, true}
	pos := dynPosition(4, sides, 11)
	dynEng, dynRunners, err := NewDynamicDiagnosticCluster(ClusterConfig{}, sides, pos)
	if err != nil {
		t.Fatal(err)
	}
	// Static reference: read point 0 for SCR nodes; after-slot nodes read
	// at their position... the pinned-snapshot semantics correspond to
	// l = 0 for every node, with node 2's write going out one round later.
	statEng, statRunners, err := NewDynamicDiagnosticCluster(ClusterConfig{}, sides,
		func(id, round int) int {
			if sides[id-1] {
				return 0
			}
			return id
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{dynEng, statEng} {
		e.Bus().AddDisturbance(fault.NewTrain(fault.SlotBurst(e.Schedule(), 8, 3, 1)))
	}
	for k := 0; k < 20; k++ {
		if err := dynEng.RunRound(); err != nil {
			t.Fatal(err)
		}
		if err := statEng.RunRound(); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 4; id++ {
			d, s := dynRunners[id].Last(), statRunners[id].Last()
			if (d.ConsHV.Known == 0) != (s.ConsHV.Known == 0) {
				t.Fatalf("round %d node %d: warm-up divergence", k, id)
			}
			if d.ConsHV != s.ConsHV {
				t.Fatalf("round %d node %d: dynamic %s != static %s", k, id, d.ConsHV.String(4), s.ConsHV.String(4))
			}
		}
	}
}

func TestProtocolDynamicConfig(t *testing.T) {
	// Dynamic mode skips the L/SendCurrRound consistency check.
	p, err := core.NewProtocol(core.Config{
		N: 4, ID: 2, L: 0, SendCurrRound: false, Dynamic: true,
		PR: core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := core.RoundInput{
		Round:    0,
		DMs:      make([]core.Syndrome, 5),
		Validity: core.NewSyndrome(4, core.Healthy),
	}
	if _, err := p.Step(in); err != nil {
		t.Fatalf("dynamic step failed: %v", err)
	}
	// Static mode still enforces the consistency check.
	if _, err := core.NewProtocol(core.Config{
		N: 4, ID: 2, L: 0, SendCurrRound: false,
		PR: core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
	}); err == nil {
		t.Fatal("static config with inconsistent L accepted")
	}
}
