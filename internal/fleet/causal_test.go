package fleet

import (
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/trace"
)

// crashShardHooks crashes two nodes of shard 0 from round 4 on — enough to
// consume a 4-node shard's majority margin and flip its summary health — and
// from round 6 takes shard 0's gateway off the inter-cluster bus, the
// whole-shard-outage model the gateway-level penalty counters react to.
func crashShardHooks() Hooks {
	return Hooks{
		Prepare: func(sr ShardRun) (func() string, error) {
			if sr.Shard != 0 {
				return nil, nil
			}
			sr.Cluster.AddLaneDisturbance(sr.Lane, fault.Crash(3, 4))
			sr.Cluster.AddLaneDisturbance(sr.Lane, fault.Crash(4, 4))
			return nil, nil
		},
		GatewayDrop: func(round, gateway int) bool {
			return gateway == 1 && round >= 6
		},
	}
}

func causalFleetConfig(workers int, sink trace.Sink) Config {
	return Config{
		Nodes: 8, Shards: 2, Rounds: 24, Workers: workers,
		ShardPR:   core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 2},
		GatewayPR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
		Sink:      sink,
	}
}

// TestFleetCausalEvents: crashing half of shard 0 must surface in the causal
// stream as a shard-health transition to faulty (Subject = 1-based shard
// index) and, once the gateway-level counters cross, exactly one
// gateway-level isolation event for that shard, consistent with
// GatewayResult.IsolationRound.
func TestFleetCausalEvents(t *testing.T) {
	var rec trace.Recorder
	c, err := New(causalFleetConfig(1, &rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(rng.NewSource(7), crashShardHooks())
	if err != nil {
		t.Fatal(err)
	}

	health := rec.Filter(trace.KindShardHealth)
	if len(health) == 0 {
		t.Fatalf("no shard-health events; stream: %v", rec.Events())
	}
	var sawFaulty bool
	for _, e := range health {
		if e.Subject != 1 {
			t.Fatalf("health transition for shard %d, only shard 1 was disturbed: %+v", e.Subject, e)
		}
		if e.Detail == "" {
			t.Fatalf("health transition without detail: %+v", e)
		}
		sawFaulty = sawFaulty || e.Detail[:6] == "faulty"
	}
	if !sawFaulty {
		t.Fatalf("no transition to faulty among %v", health)
	}

	isos := rec.Filter(trace.KindIsolation)
	if len(isos) != 1 {
		t.Fatalf("want exactly one gateway-level isolation event, got %v", isos)
	}
	iso := isos[0]
	if iso.Subject != 1 || iso.Detail != "gateway level" {
		t.Fatalf("gateway isolation malformed: %+v", iso)
	}
	if res.Gateway == nil || res.Gateway.IsolationRound[1] != iso.Round {
		t.Fatalf("event round %d disagrees with IsolationRound %v", iso.Round, res.Gateway.IsolationRound)
	}
	if iso.Penalty <= iso.Threshold {
		t.Fatalf("gateway isolation counter state %d/%d shows no crossing", iso.Penalty, iso.Threshold)
	}
}

// TestFleetCausalWorkerInvariance: the causal stream is emitted from the
// serial phase over recorded timelines, so it must be byte-identical at any
// worker count and under a reversed shard dispatch order.
func TestFleetCausalWorkerInvariance(t *testing.T) {
	run := func(workers int, reorder bool) []trace.Event {
		var rec trace.Recorder
		c, err := New(causalFleetConfig(workers, &rec))
		if err != nil {
			t.Fatal(err)
		}
		if reorder {
			if err := c.setOrder([]int{1, 0}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Run(rng.NewSource(7), crashShardHooks()); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	ref := run(1, false)
	if len(ref) == 0 {
		t.Fatalf("reference run emitted nothing — the invariance check is vacuous")
	}
	for _, v := range []struct {
		workers int
		reorder bool
	}{{4, false}, {1, true}, {4, true}} {
		got := run(v.workers, v.reorder)
		if i := trace.FirstDivergence(ref, got); i >= 0 {
			t.Fatalf("workers=%d reorder=%v: stream diverges at event %d", v.workers, v.reorder, i)
		}
	}
}
