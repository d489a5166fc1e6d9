package fleet

import (
	"fmt"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

func TestPartition(t *testing.T) {
	cases := []struct {
		nodes, shards int
		want          []int
		wantErr       bool
	}{
		{64, 1, []int{64}, false},
		{256, 4, []int{64, 64, 64, 64}, false},
		{10, 3, []int{4, 3, 3}, false},
		{130, 3, []int{44, 43, 43}, false},
		{4096, 64, nil, false},
		{0, 0, nil, true},    // no shards
		{100, 0, nil, true},  // no shards
		{128, 65, nil, true}, // gateway level past the packed bound
		{3, 2, nil, true},    // shard below the 2-node minimum
		{65, 1, nil, true},   // shard past the packed bound
		{4097, 64, nil, true},
	}
	for _, c := range cases {
		got, err := Partition(c.nodes, c.shards)
		if c.wantErr {
			if err == nil {
				t.Errorf("Partition(%d, %d): want error, got %v", c.nodes, c.shards, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Partition(%d, %d): %v", c.nodes, c.shards, err)
			continue
		}
		total := 0
		for _, s := range got {
			total += s
			if s < 2 || s > core.MaxPackedN {
				t.Errorf("Partition(%d, %d): shard size %d out of range", c.nodes, c.shards, s)
			}
		}
		if total != c.nodes {
			t.Errorf("Partition(%d, %d): sizes sum to %d", c.nodes, c.shards, total)
		}
		if c.want != nil {
			for i, w := range c.want {
				if got[i] != w {
					t.Errorf("Partition(%d, %d) = %v, want %v", c.nodes, c.shards, got, c.want)
					break
				}
			}
		}
	}
}

// burstHooks injects a single-slot benign burst into the victim shard, drawn
// from a run-scoped stream, and audits Theorem 1 around the injection.
func burstHooks(prefix string, victim int) Hooks {
	return Hooks{
		Prepare: func(sr ShardRun) (func() string, error) {
			if sr.Shard != victim {
				return nil, nil
			}
			stream := sr.Pool.Stream(fmt.Sprintf("%s/shard-%d", prefix, sr.Shard))
			inject := 6 + stream.Intn(3)
			node := 2 + stream.Intn(sr.Size-1)
			cl := sr.Cluster
			cl.AddLaneDisturbance(sr.Lane, fault.NewTrain(
				fault.SlotBurst(cl.Schedule(), inject, node, 1)))
			obedient := make([]int, sr.Size)
			for i := range obedient {
				obedient[i] = i + 1
			}
			truth, col := cl.LaneTruth(sr.Lane), cl.LaneCollector(sr.Lane)
			return func() string {
				if err := sim.AuditTheorem1(truth, col, obedient, 4, inject+6); err != nil {
					return err.Error()
				}
				return ""
			}, nil
		},
	}
}

// checkGatewayHVConsistency asserts that every gateway that produced a
// consistent health vector for a diagnosed round agreed on the same vector —
// Theorem 1 consistency lifted to the fleet level.
func checkGatewayHVConsistency(t *testing.T, gr *GatewayResult, s int) {
	t.Helper()
	diagnosed := 0
	for d, hvs := range gr.HVs {
		if hvs == nil {
			continue
		}
		diagnosed++
		var ref core.BitSyndrome
		refG := 0
		for g := 1; g <= s; g++ {
			hv := hvs[g]
			if hv.Known == 0 {
				continue
			}
			if refG == 0 {
				ref, refG = hv, g
			} else if hv != ref {
				t.Errorf("gateway HV consistency violated at diagnosed round %d: gateway %d %+v vs gateway %d %+v",
					d, g, hv, refG, ref)
			}
		}
	}
	if diagnosed == 0 {
		t.Error("no gateway round was diagnosed")
	}
}

// TestFleetOutageIsolation runs the full two-level pipeline: an intra-shard
// burst is diagnosed and audited inside its shard while a whole-shard outage
// (its gateway stops transmitting) is isolated at the fleet level by every
// surviving gateway.
func TestFleetOutageIsolation(t *testing.T) {
	const (
		shards      = 4
		victim      = 0
		outage      = 2
		outageRound = 8
	)
	c, err := New(Config{
		Nodes: 32, Shards: shards,
		GatewayPR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := c.Config().Rounds
	hooks := burstHooks("outage/run-0", victim)
	hooks.GatewayDrop = func(round, g int) bool {
		return g == outage+1 && round >= outageRound
	}
	res, err := c.Run(rng.NewSource(11), hooks)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range res.Shards {
		if sr.Verdict != "" {
			t.Errorf("shard %d intra-shard audit failed: %s", i, sr.Verdict)
		}
		if sr.Final.Size != c.Sizes()[i] {
			t.Errorf("shard %d final summary size %d, want %d", i, sr.Final.Size, c.Sizes()[i])
		}
	}
	gr := res.Gateway
	if gr == nil {
		t.Fatal("no gateway result for a multi-shard fleet")
	}
	if gr.Drops != rounds-outageRound {
		t.Errorf("drops = %d, want %d", gr.Drops, rounds-outageRound)
	}
	iso := gr.IsolationRound[outage+1]
	if iso < outageRound || iso >= rounds {
		t.Fatalf("outage shard isolated at gateway round %d, want within [%d, %d)", iso, outageRound, rounds)
	}
	// Detection lag is two gateway rounds and the penalty threshold adds
	// three more faulty verdicts before isolation trips.
	if lat := iso - outageRound; lat > 8 {
		t.Errorf("isolation latency %d gateway rounds, want <= 8", lat)
	}
	all := core.PlaneMask(shards)
	want := all &^ (1 << uint(outage))
	for g := 1; g <= shards; g++ {
		if g != outage+1 {
			if gr.IsolationRound[g] >= 0 {
				t.Errorf("healthy shard %d isolated at round %d", g-1, gr.IsolationRound[g])
			}
			if gr.FinalActive[g] != want {
				t.Errorf("gateway %d final active mask %064b, want %064b", g, gr.FinalActive[g], want)
			}
			if gr.Received[g].Size != c.Sizes()[g-1] {
				t.Errorf("gateway %d last received summary %+v, want size %d", g, gr.Received[g], c.Sizes()[g-1])
			}
		}
	}
	checkGatewayHVConsistency(t, gr, shards)
}

// TestFleetTransientGatewayFault checks tuning: a two-round gateway-frame
// loss stays below the fleet-level penalty threshold and is not isolated.
func TestFleetTransientGatewayFault(t *testing.T) {
	c, err := New(Config{
		Nodes: 32, Shards: 4,
		GatewayPR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	hooks := Hooks{GatewayDrop: func(round, g int) bool {
		return g == 2 && round >= 6 && round < 8
	}}
	res, err := c.Run(rng.NewSource(3), hooks)
	if err != nil {
		t.Fatal(err)
	}
	gr := res.Gateway
	if gr.Drops != 2 {
		t.Errorf("drops = %d, want 2", gr.Drops)
	}
	for g := 1; g <= 4; g++ {
		if gr.IsolationRound[g] >= 0 {
			t.Errorf("shard %d isolated at round %d after a transient fault", g-1, gr.IsolationRound[g])
		}
		if gr.FinalActive[g] != core.PlaneMask(4) {
			t.Errorf("gateway %d final active mask %04b, want all active", g, gr.FinalActive[g])
		}
	}
	checkGatewayHVConsistency(t, gr, 4)
}

// TestFleetSingleShard pins the degenerate geometry: one shard, no gateway
// level, results flow through unchanged.
func TestFleetSingleShard(t *testing.T) {
	c, err := New(Config{Nodes: 16, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(rng.NewSource(5), burstHooks("single/run-0", 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gateway != nil {
		t.Error("single-shard fleet produced a gateway result")
	}
	if len(res.Shards) != 1 || res.Shards[0].Verdict != "" {
		t.Errorf("unexpected shard results: %+v", res.Shards)
	}
	if res.Shards[0].Final.Size != 16 {
		t.Errorf("final summary %+v, want size 16", res.Shards[0].Final)
	}
}

// TestFleetSummaryTimeline checks the published per-round summaries: an
// intra-shard isolation (strict shard PR tuning) must surface in the victim
// shard's summary stream and nowhere else.
func TestFleetSummaryTimeline(t *testing.T) {
	const victim = 1
	c, err := New(Config{
		Nodes: 24, Shards: 3,
		ShardPR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A persistent benign fault inside the victim shard: node 3's slot is hit
	// every round from round 6 on, driving its penalty past the threshold.
	hooks := Hooks{Prepare: func(sr ShardRun) (func() string, error) {
		if sr.Shard != victim {
			return nil, nil
		}
		var bursts []fault.Burst
		for r := 6; r < c.Config().Rounds; r++ {
			bursts = append(bursts, fault.SlotBurst(sr.Cluster.Schedule(), r, 3, 1))
		}
		sr.Cluster.AddLaneDisturbance(sr.Lane, fault.NewTrain(bursts...))
		return nil, nil
	}}
	res, err := c.Run(rng.NewSource(9), hooks)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Shards[victim].Final; got.Isolated != 1 {
		t.Errorf("victim shard final summary %+v, want 1 isolated node", got)
	}
	if !res.Shards[victim].Final.Degraded() {
		t.Error("victim shard final summary not flagged degraded")
	}
	for i, sr := range res.Shards {
		if i == victim {
			continue
		}
		if sr.Final.Isolated != 0 || sr.Final.Degraded() {
			t.Errorf("healthy shard %d final summary %+v", i, sr.Final)
		}
	}
	// The fleet level must have decoded the victim's degradation: the last
	// summary every gateway received from the victim's gateway carries the
	// isolation count.
	if got := res.Gateway.Received[victim+1]; got.Isolated != 1 {
		t.Errorf("fleet-level received summary %+v, want 1 isolated", got)
	}
}
