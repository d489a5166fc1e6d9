// Determinism contracts of the fleet layer: results and merged metrics are
// byte-identical at any worker count and any shard dispatch order (and so any
// lane placement), and every lane-packed shard reproduces a directly driven
// per-run cluster exactly.
package fleet

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// invarianceConfig is the shared geometry of the invariance tests: six
// shards so permutations and worker imbalance have room to bite. 130 nodes
// split into four 22-node shards (two lanes per gang) and two 21-node shards
// (three lanes, so that gang is ragged): three gangs of two sizes, whose
// lanes a permuted dispatch order fills differently.
func invarianceConfig(workers int, ws *metrics.WorkerSet) Config {
	return Config{
		Nodes: 130, Shards: 6, Workers: workers,
		GatewayPR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8},
		Metrics:   ws,
	}
}

// invarianceHooks is a full scenario: a burst inside shard 0, a whole-shard
// outage of shard 3 and a transient frame loss at shard 1's gateway.
func invarianceHooks(run int) Hooks {
	hooks := burstHooks(fmt.Sprintf("invariance/run-%d", run), 0)
	hooks.GatewayDrop = func(round, g int) bool {
		if g == 4 && round >= 9 {
			return true
		}
		return g == 2 && round >= 5 && round < 7
	}
	return hooks
}

func TestFleetWorkerCountInvariance(t *testing.T) {
	ws1, ws4 := metrics.NewWorkerSet(), metrics.NewWorkerSet()
	c1, err := New(invarianceConfig(1, ws1))
	if err != nil {
		t.Fatal(err)
	}
	c4, err := New(invarianceConfig(4, ws4))
	if err != nil {
		t.Fatal(err)
	}
	src1, src4 := rng.NewSource(23), rng.NewSource(23)
	for run := 0; run < 2; run++ {
		hooks := invarianceHooks(run)
		r1, err := c1.Run(src1, hooks)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := c4.Run(src4, hooks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r4) {
			t.Fatalf("run %d: results differ between 1 and 4 workers:\n1: %+v\n4: %+v", run, r1, r4)
		}
	}
	s1, err := ws1.Merged()
	if err != nil {
		t.Fatal(err)
	}
	s4, err := ws4.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Fatalf("merged metrics differ between 1 and 4 workers:\n1: %+v\n4: %+v", s1, s4)
	}
}

func TestFleetShardOrderInvariance(t *testing.T) {
	wsA, wsB := metrics.NewWorkerSet(), metrics.NewWorkerSet()
	cA, err := New(invarianceConfig(2, wsA))
	if err != nil {
		t.Fatal(err)
	}
	cB, err := New(invarianceConfig(2, wsB))
	if err != nil {
		t.Fatal(err)
	}
	if err := cB.setOrder([]int{5, 4, 3, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	srcA, srcB := rng.NewSource(23), rng.NewSource(23)
	for run := 0; run < 2; run++ {
		hooks := invarianceHooks(run)
		rA, err := cA.Run(srcA, hooks)
		if err != nil {
			t.Fatal(err)
		}
		rB, err := cB.Run(srcB, hooks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rA, rB) {
			t.Fatalf("run %d: results differ under reversed shard order:\nidentity: %+v\nreversed: %+v", run, rA, rB)
		}
	}
	sA, err := wsA.Merged()
	if err != nil {
		t.Fatal(err)
	}
	sB, err := wsB.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sA, sB) {
		t.Fatalf("merged metrics differ under reversed shard order:\nidentity: %+v\nreversed: %+v", sA, sB)
	}
	if err := cB.setOrder([]int{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("setOrder accepted a non-permutation")
	}
	if err := cB.setOrder([]int{0, 1}); err == nil {
		t.Error("setOrder accepted a short permutation")
	}
}

// equivScenario is the per-shard fault scenario of the lane-packing
// differential test, drawn from a shard-named stream: a single-slot burst
// every second round for six rounds at one node and, in odd shards, a node
// that falls silent later on (its row goes missing from every matrix and
// the penalty counters isolate it).
func equivScenario(pool *rng.Pool, shard, size int, sched *tdma.Schedule, add func(tdma.Disturbance)) {
	stream := pool.Stream(fmt.Sprintf("equiv/run-0/shard-%d", shard))
	inject := 4 + stream.Intn(4)
	node := 2 + stream.Intn(size-1)
	var bursts []fault.Burst
	for r := inject; r < inject+6; r += 2 {
		bursts = append(bursts, fault.SlotBurst(sched, r, node, 1))
	}
	add(fault.NewTrain(bursts...))
	if shard%2 == 1 {
		add(fault.Crash(tdma.NodeID(1+stream.Intn(size)), 10+stream.Intn(6)))
	}
}

// collectorDump renders everything a collector recorded, so a lane's
// record can be compared after its cluster moved on to the next gang.
func collectorDump(col *sim.Collector, size, rounds int) string {
	var b strings.Builder
	for d := 0; d < rounds; d++ {
		fmt.Fprintf(&b, "d%d", d)
		for obs := 1; obs <= size; obs++ {
			fmt.Fprintf(&b, " %v", col.HV(d, obs))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "iso %+v\nre %+v\n", col.Isolations, col.Reintegrations)
	return b.String()
}

// shardRecord is one shard's observable outcome on either path.
type shardRecord struct {
	col       string
	penalties []int64 // observer·(size+1)+j
	summaries []core.ShardSummary
}

// perRunShard is the executable reference for one shard: a per-run
// sim.DiagCluster fed the same streams and disturbances, publishing the
// gateway summary from node 1's round outputs and recording into its own
// registry.
func perRunShard(t *testing.T, cfg Config, seed int64, shard, size int, reg *metrics.Registry) shardRecord {
	t.Helper()
	cl, err := sim.NewReusableDiagnosticCluster(sim.ClusterConfig{
		N: size, RoundLen: cfg.shardRoundLen(size), PR: cfg.ShardPR,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Reset()
	col := sim.NewCollector()
	sm, sys := core.NewStepMetrics(reg), sim.NewRunMetrics(reg)
	for id := 1; id <= size; id++ {
		cl.Runners[id].Protocol().SetMetrics(sm)
		col.HookDiag(id, cl.Runners[id])
	}
	rec := shardRecord{summaries: make([]core.ShardSummary, cfg.Rounds)}
	collect := cl.Runners[1].OnOutput
	cl.Runners[1].OnOutput = func(out core.RoundOutput) {
		collect(out)
		s := core.ShardSummary{Size: size, Isolated: size - bits.OnesCount64(out.Active&core.PlaneMask(size))}
		s.Faulty = out.ConsHV.CountFaulty(size)
		rec.summaries[out.Round] = s
	}
	pool := rng.NewSource(seed).NewPool()
	equivScenario(pool, shard, size, cl.Eng.Schedule(), cl.Eng.Bus().AddDisturbance)
	if err := cl.Eng.RunRounds(cfg.Rounds); err != nil {
		t.Fatal(err)
	}
	sys.ObserveTruth(cl.Eng)
	sys.ObserveIsolationLatency(cl.Eng, col)
	rec.col = collectorDump(col, size, cfg.Rounds)
	for obs := 0; obs <= size; obs++ {
		for j := 0; j <= size; j++ {
			var pen int64
			if obs >= 1 && j >= 1 {
				pen = cl.Runners[obs].Protocol().PenaltyReward().Penalty(j)
			}
			rec.penalties = append(rec.penalties, pen)
		}
	}
	return rec
}

// shardMetricsOnly drops the fleet-level and lane-packing instruments, which
// only the fleet records, from a merged snapshot.
func shardMetricsOnly(s metrics.Snapshot) metrics.Snapshot {
	for name := range s.Counters {
		if strings.HasPrefix(name, "fleet/") || strings.HasPrefix(name, "batch/") {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if strings.HasPrefix(name, "fleet/") {
			delete(s.Gauges, name)
		}
	}
	return s
}

// TestFleetLanePackedMatchesPerRun is the differential test of the fleet's
// shard phase: every shard runs as one lane of a sim.BatchDiagCluster, and
// its collector record, final penalty counters, published summary timeline
// and telemetry must equal a per-run sim.DiagCluster driven directly with
// identically named streams. The geometries cover one shard, two shard sizes
// in one fleet, full and ragged gangs, single-lane 64-node shards and the
// reintegration extension (isolated nodes stay observed).
func TestFleetLanePackedMatchesPerRun(t *testing.T) {
	cases := []struct {
		name          string
		nodes, shards int
		pr            core.PRConfig
	}{
		{"one_shard_n16", 16, 1, core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4}},
		{"two_sizes_n40_s3", 40, 3, core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4}},
		{"ragged_n60_s7", 60, 7, core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 3}},
		{"full_n64_s16", 64, 16, core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4}},
		{"single_lane_n128_s2", 128, 2, core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4}},
		{"reintegration_n24_s3", 24, 3, core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 2, ReintegrationThreshold: 3}},
	}
	const seed = 7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := metrics.NewWorkerSet()
			c, err := New(Config{Nodes: tc.nodes, Shards: tc.shards, Workers: 2, ShardPR: tc.pr, Metrics: ws})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := make([]shardRecord, tc.shards)
			hooks := Hooks{Prepare: func(sr ShardRun) (func() string, error) {
				cl, lane := sr.Cluster, sr.Lane
				equivScenario(sr.Pool, sr.Shard, sr.Size, cl.Schedule(), func(d tdma.Disturbance) {
					cl.AddLaneDisturbance(lane, d)
				})
				// The audit runs right after the gang, before the cluster
				// is reset for another one: snapshot the lane there.
				return func() string {
					rec := shardRecord{col: collectorDump(cl.LaneCollector(lane), sr.Size, c.Config().Rounds)}
					for obs := 0; obs <= sr.Size; obs++ {
						for j := 0; j <= sr.Size; j++ {
							var pen int64
							if obs >= 1 && j >= 1 {
								pen = cl.LaneFinalPenalty(lane, obs, j)
							}
							rec.penalties = append(rec.penalties, pen)
						}
					}
					mu.Lock()
					got[sr.Shard] = rec
					mu.Unlock()
					return ""
				}, nil
			}}
			res, err := c.Run(rng.NewSource(seed), hooks)
			if err != nil {
				t.Fatal(err)
			}

			refWS := metrics.NewWorkerSet()
			for i, size := range c.Sizes() {
				want := perRunShard(t, c.Config(), seed, i, size, refWS.Worker())
				if got[i].col != want.col {
					t.Errorf("shard %d (size %d): collector differs\nlane-packed:\n%s\nper-run:\n%s", i, size, got[i].col, want.col)
				}
				if !reflect.DeepEqual(got[i].penalties, want.penalties) {
					t.Errorf("shard %d: final penalties %v, per-run %v", i, got[i].penalties, want.penalties)
				}
				if !reflect.DeepEqual(res.Shards[i].Summaries, want.summaries) {
					t.Errorf("shard %d: summaries %v, per-run %v", i, res.Shards[i].Summaries, want.summaries)
				}
			}
			gotM, err := ws.Merged()
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := refWS.Merged()
			if err != nil {
				t.Fatal(err)
			}
			if gotM = shardMetricsOnly(gotM); !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("shard telemetry differs:\nlane-packed: %+v\nper-run:     %+v", gotM, wantM)
			}
			if gotM.Counters["pr/isolations"] == 0 {
				t.Errorf("scenario isolated nothing — the comparison is weak: %v", gotM.Counters)
			}
			if tc.pr.ReintegrationThreshold > 0 && gotM.Counters["pr/reintegrations"] == 0 {
				t.Errorf("scenario reintegrated nothing: %v", gotM.Counters)
			}
		})
	}
}
