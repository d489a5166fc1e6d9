package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/membership"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// batchScenario parameterises one lane/run of the batch-vs-engine
// differential: which disturbances to attach and how long the repetition is.
type batchScenario struct {
	name string
	cfg  ClusterConfig
	// attach installs run's disturbances on add (the per-run bus or a batch
	// lane) and returns the repetition horizon in rounds.
	attach func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int
}

// batchScenarios covers the observable regimes of the batched cluster:
// pure detection (no isolation), isolation without reintegration (the
// monotone ignore path plus collision feedback), reintegration (the
// observe path), a design-time AllSendCurrRound schedule, malicious
// senders driving the rng-backed disturbance caching, and the
// receiver-selective faults the blind masks carry (tdma.Blinder): SOS
// senders, blind receivers, a blinder that hides a malicious sender from
// every receiver, and the N = 64 mix of the widest scale-resilience case.
// Two membership-mode scenarios add the views: the sec8-clique receive
// fault and a node that falls silent.
func batchScenarios() []batchScenario {
	prototype := []int{2, 0, 3, 1}
	burstAttach := func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
		inject := 4 + run%6
		slots := []int{1, 2, 8}[run%3]
		start := 1 + run%4
		add(fault.NewTrain(fault.SlotBurst(sched, inject, start, slots)))
		return inject + 10 + run%3
	}
	return []batchScenario{
		{
			name:   "bursts_detect",
			cfg:    ClusterConfig{Ls: prototype},
			attach: burstAttach,
		},
		{
			name: "bursts_isolate",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
			},
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				start := 5 + run%4
				target := 1 + run%4
				var bursts []fault.Burst
				for r := start; r < start+14; r += 2 {
					bursts = append(bursts, fault.SlotBurst(sched, r, target, 1))
				}
				add(fault.NewTrain(bursts...))
				return start + 18
			},
		},
		{
			name: "bursts_reintegrate",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4, ReintegrationThreshold: 3},
			},
			// Faulty rounds until the penalty crosses the threshold, then a
			// quiet tail long enough for the observation window to
			// reintegrate the target.
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				start := 5 + run%3
				target := 1 + run%4
				var bursts []fault.Burst
				for r := start; r < start+8; r += 2 {
					bursts = append(bursts, fault.SlotBurst(sched, r, target, 1))
				}
				add(fault.NewTrain(bursts...))
				return start + 20 + run%3
			},
		},
		{
			name:   "bursts_allcurr",
			cfg:    ClusterConfig{Ls: []int{0, 1, 2, 3}, AllSendCurrRound: true},
			attach: burstAttach,
		},
		{
			name: "malicious",
			cfg:  ClusterConfig{Ls: prototype},
			attach: func(run int, sched *tdma.Schedule, add func(tdma.Disturbance)) int {
				mal := tdma.NodeID(1 + run%4)
				add(fault.NewMaliciousSyndrome(mal, rng.NewStream(int64(4000+run))))
				return 20 + run%4
			},
		},
		{
			// Several victims, the sender's own loopback among them in
			// most runs, repeated until the sender is isolated; a
			// malicious node overlaps the episode in every other run.
			name: "sos",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 5},
			},
			attach: func(run int, _ *tdma.Schedule, add func(tdma.Disturbance)) int {
				sender := tdma.NodeID(1 + run%4)
				victims := [][]tdma.NodeID{
					{sender, sender%4 + 1},
					{sender, sender%4 + 1, (sender+1)%4 + 1},
					{sender%4 + 1, (sender+1)%4 + 1},
					{1, 2, 3, 4},
				}[run%4]
				start := 5 + run%3
				for r := start; r < start+10; r += 2 {
					add(fault.SOS{Sender: sender, Victims: victims, FromRound: r, ToRound: r + 1})
				}
				if run%2 == 1 {
					add(fault.NewMaliciousSyndrome(sender%4+1, rng.NewStream(int64(5000+run))))
				}
				return start + 16
			},
		},
		{
			name: "receiver_blind",
			cfg: ClusterConfig{
				Ls: prototype,
				PR: core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4, ReintegrationThreshold: 3},
			},
			attach: func(run int, _ *tdma.Schedule, add func(tdma.Disturbance)) int {
				rcv := tdma.NodeID(1 + run%4)
				senders := [][]tdma.NodeID{nil, {rcv%4 + 1}, {rcv%4 + 1, (rcv+1)%4 + 1}}[run%3]
				start := 4 + run%5
				add(fault.ReceiverBlind{Receiver: rcv, Senders: senders, FromRound: start, ToRound: start + 1 + run%3})
				add(fault.ReceiverBlind{Receiver: rcv%4 + 1, Senders: []tdma.NodeID{rcv}, FromRound: start + 6, ToRound: start + 8})
				return start + 18
			},
		},
		{
			// An SOS ahead of a malicious sender in the chain blinds every
			// receiver in even rounds, so the malicious payload must be
			// drawn in odd rounds only, as the per-run bus draws it.
			name: "blind_before_malicious",
			cfg:  ClusterConfig{Ls: prototype},
			attach: func(run int, _ *tdma.Schedule, add func(tdma.Disturbance)) int {
				mal := tdma.NodeID(1 + run%4)
				for r := 4; r < 16; r += 2 {
					add(fault.SOS{Sender: mal, Victims: []tdma.NodeID{1, 2, 3, 4}, FromRound: r, ToRound: r + 1})
				}
				add(fault.SOS{Sender: mal, Victims: []tdma.NodeID{mal%4 + 1}, FromRound: 5, ToRound: 6})
				add(fault.NewMaliciousSyndrome(mal, rng.NewStream(int64(6000+run))))
				return 18 + run%4
			},
		},
		{
			// The a = 1, s = 30 mix of the widest scale-resilience case:
			// 30 malicious sources, one SOS sender with one victim.
			name: "n64_sos_malicious",
			cfg:  ClusterConfig{N: 64, RoundLen: DefaultRoundLen * 16, Ls: wideLs(64)},
			attach: func(run int, _ *tdma.Schedule, add func(tdma.Disturbance)) int {
				for node := 1; node <= 30; node++ {
					add(fault.NewMaliciousSyndrome(tdma.NodeID(node), rng.NewStream(int64(7000+64*run+node))))
				}
				add(fault.SOS{Sender: 31, Victims: []tdma.NodeID{32}, FromRound: 8, ToRound: 9})
				return 18
			},
		},
		{
			// The sec8-clique fault: node 1 misses one sender's broadcast
			// for one round and forms a minority clique. The horizons end
			// some lanes before their view change and others after it.
			name: "membership_clique",
			cfg:  ClusterConfig{Ls: prototype, Mode: core.ModeMembership},
			attach: func(run int, _ *tdma.Schedule, add func(tdma.Disturbance)) int {
				f := 6 + run%6
				add(fault.ReceiverBlind{
					Receiver: 1, Senders: []tdma.NodeID{tdma.NodeID(2 + run%3)},
					FromRound: f, ToRound: f + 1,
				})
				return f + 3 + run%12
			},
		},
		{
			// A node falls silent: every view excludes it, and the
			// penalties isolate it.
			name: "membership_silent",
			cfg: ClusterConfig{
				Ls:   prototype,
				Mode: core.ModeMembership,
				PR:   core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
			},
			attach: func(run int, _ *tdma.Schedule, add func(tdma.Disturbance)) int {
				add(fault.Crash(tdma.NodeID(1+run%4), 5+run%4))
				return 16 + run%5
			},
		},
	}
}

// batchScenarioNamed returns the scenario of that name.
func batchScenarioNamed(t *testing.T, name string) batchScenario {
	t.Helper()
	for _, sc := range batchScenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no batch scenario %q", name)
	return batchScenario{}
}

// wideLs draws a fixed job layout for an n-node scenario.
func wideLs(n int) []int {
	st := rng.NewStream(int64(n))
	ls := make([]int, n)
	for i := range ls {
		ls[i] = st.Intn(n)
	}
	return ls
}

// batchReference is what one per-run repetition leaves behind: collector,
// truth rows, final penalties (observer, node), the telemetry snapshot, the
// trace events and, in membership mode, every node's view (1-based).
type batchReference struct {
	col    *Collector
	truth  [][]tdma.OutcomeClass
	pen    [][]int64
	snap   []byte
	events []trace.Event
	views  []membership.View
}

// runBatchReference executes one repetition on the per-run lock-step engine
// of the scenario's mode and returns its observables.
func runBatchReference(t *testing.T, sc batchScenario, run int) batchReference {
	t.Helper()
	cfg := sc.cfg
	var rec trace.Recorder
	cfg.Sink = &rec
	reg := metrics.New()
	sm := core.NewStepMetrics(reg)
	ref := batchReference{col: NewCollector()}
	var eng *Engine
	var protos []*core.Protocol
	var views func(id int) membership.View
	if cfg.Mode == core.ModeMembership {
		e, runners, err := NewMembershipCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, protos = e, make([]*core.Protocol, len(runners))
		for id := 1; id < len(runners); id++ {
			ref.col.HookMembership(id, runners[id])
			protos[id] = runners[id].Service().Protocol()
		}
		views = func(id int) membership.View { return runners[id].View() }
	} else {
		e, runners, err := NewDiagnosticCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, protos = e, make([]*core.Protocol, len(runners))
		for id := 1; id < len(runners); id++ {
			ref.col.HookDiag(id, runners[id])
			protos[id] = runners[id].Protocol()
		}
	}
	n := eng.Schedule().N()
	for id := 1; id <= n; id++ {
		protos[id].SetMetrics(sm)
	}
	horizon := sc.attach(run, eng.Schedule(), func(d tdma.Disturbance) { eng.Bus().AddDisturbance(d) })
	if err := eng.RunRounds(horizon); err != nil {
		t.Fatal(err)
	}
	ref.truth = make([][]tdma.OutcomeClass, horizon)
	for r := 0; r < horizon; r++ {
		ref.truth[r] = append([]tdma.OutcomeClass(nil), eng.Truth(r)...)
	}
	ref.pen = make([][]int64, n+1)
	for id := 1; id <= n; id++ {
		ref.pen[id] = make([]int64, n+1)
		pr := protos[id].PenaltyReward()
		for j := 1; j <= n; j++ {
			ref.pen[id][j] = pr.Penalty(j)
		}
	}
	if views != nil {
		ref.views = make([]membership.View, n+1)
		for id := 1; id <= n; id++ {
			ref.views[id] = views(id)
		}
	}
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ref.snap = snap
	ref.events = rec.Events()
	return ref
}

// TestBatchClusterEquivalence pins the lane-packed batched cluster to the
// lock-step per-run engine: for every scenario and gang width (full,
// ragged, single-lane), lane r of the gang must leave behind exactly the
// observables of per-run repetition r — collector records, ground-truth
// rows, final penalty counters, membership views, telemetry snapshots and
// the flushed trace events, node 1's causal stream and view changes
// included.
func TestBatchClusterEquivalence(t *testing.T) {
	for _, sc := range batchScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var sink trace.Recorder
			cfg := sc.cfg
			cfg.Sink = &sink
			bc, err := NewBatchDiagCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := bc.Config().N
			for _, width := range gangWidths(core.BatchLanes(bc.Config().N)) {
				width := width
				t.Run(fmt.Sprintf("g%d", width), func(t *testing.T) {
					if err := bc.ResetBatch(width); err != nil {
						t.Fatal(err)
					}
					regs := make([]*metrics.Registry, width)
					for lane := 0; lane < width; lane++ {
						regs[lane] = metrics.New()
						sm := core.NewStepMetrics(regs[lane])
						for id := 1; id <= n; id++ {
							bc.Proto(id).SetLaneMetrics(lane, sm)
						}
						lane := lane
						h := sc.attach(lane, bc.Schedule(), func(d tdma.Disturbance) { bc.AddLaneDisturbance(lane, d) })
						bc.SetLaneHorizon(lane, h)
					}
					if err := bc.Run(); err != nil {
						t.Fatal(err)
					}
					viewChanges := 0 // lanes whose node 1 installed a new view
					for lane := 0; lane < width; lane++ {
						ref := runBatchReference(t, sc, lane)
						sink.Reset()
						bc.FlushLaneTrace(lane)
						if i := trace.FirstDivergence(sink.Events(), ref.events); i >= 0 {
							t.Fatalf("lane %d trace diverges at event %d (engine recorded %d)", lane, i, len(ref.events))
						}
						lt := bc.LaneTruth(lane)
						if lt.Round() != len(ref.truth) {
							t.Fatalf("lane %d: %d recorded rounds, engine executed %d", lane, lt.Round(), len(ref.truth))
						}
						for r := range ref.truth {
							if got := lt.Truth(r); !reflect.DeepEqual(got, ref.truth[r]) {
								t.Fatalf("lane %d round %d truth:\n got %v\nwant %v", lane, r, got, ref.truth[r])
							}
						}
						if got := bc.LaneCollector(lane); !reflect.DeepEqual(got, ref.col) {
							t.Fatalf("lane %d collector diverges:\n got %+v\nwant %+v", lane, got, ref.col)
						}
						for id := 1; id <= n; id++ {
							for j := 1; j <= n; j++ {
								if got, want := bc.LaneFinalPenalty(lane, id, j), ref.pen[id][j]; got != want {
									t.Fatalf("lane %d observer %d penalty(%d) = %d, want %d", lane, id, j, got, want)
								}
							}
							if ref.views != nil {
								if got := bc.LaneView(lane, id); !reflect.DeepEqual(got, ref.views[id]) {
									t.Fatalf("lane %d node %d view %+v, want %+v", lane, id, got, ref.views[id])
								}
							}
						}
						snap, err := json.Marshal(regs[lane].Snapshot())
						if err != nil {
							t.Fatal(err)
						}
						if string(snap) != string(ref.snap) {
							t.Fatalf("lane %d metrics snapshot diverges:\n got %s\nwant %s", lane, snap, ref.snap)
						}
						if ref.views != nil && ref.views[1].ID > 0 {
							viewChanges++
						}
					}
					if sc.cfg.Mode == core.ModeMembership && width == core.BatchLanes(bc.Config().N) && viewChanges == 0 {
						t.Fatal("no lane installed a new view")
					}
				})
			}
		})
	}
}

// gangWidths returns the full, ragged and single-lane gang widths of a
// capacity, without repeats (a one-lane capacity has only one).
func gangWidths(capacity int) []int {
	var ws []int
	for _, w := range []int{capacity, capacity/2 + 1, 1} {
		if len(ws) == 0 || ws[len(ws)-1] != w {
			ws = append(ws, w)
		}
	}
	return ws
}

// TestBatchClusterReset pins gang reuse in both modes: a cluster reset
// between gangs is observationally identical to a freshly built one,
// including shrinking to a ragged width and growing back, and ResetLs
// re-pins a used cluster's job schedule exactly as building the cluster
// with that schedule does.
func TestBatchClusterReset(t *testing.T) {
	for _, name := range []string{"bursts_detect", "membership_silent"} {
		sc := batchScenarioNamed(t, name)
		t.Run(name, func(t *testing.T) {
			reused, err := NewBatchDiagCluster(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for gang, width := range []int{core.BatchLanes(reused.Config().N), 3, core.BatchLanes(reused.Config().N), 1} {
				fresh, err := NewBatchDiagCluster(sc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, bc := range []*BatchDiagCluster{reused, fresh} {
					if err := bc.ResetBatch(width); err != nil {
						t.Fatal(err)
					}
					runGang(t, sc, bc, gang*7, width)
				}
				sameLanes(t, fmt.Sprintf("gang %d", gang), reused, fresh, width)
			}

			// A staircase cluster, dirtied by one gang, re-pinned to the
			// scenario's schedule.
			stair := sc.cfg
			stair.Ls = Staircase(4)
			swapped, err := NewBatchDiagCluster(stair)
			if err != nil {
				t.Fatal(err)
			}
			runGang(t, sc, swapped, 3, core.BatchLanes(swapped.Config().N))
			fresh, err := NewBatchDiagCluster(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const width = 5
			for _, bc := range []*BatchDiagCluster{swapped, fresh} {
				if err := bc.ResetBatch(width); err != nil {
					t.Fatal(err)
				}
			}
			if err := swapped.ResetLs(sc.cfg.Ls); err != nil {
				t.Fatal(err)
			}
			for _, bc := range []*BatchDiagCluster{swapped, fresh} {
				runGang(t, sc, bc, 11, width)
			}
			sameLanes(t, "ResetLs", swapped, fresh, width)

			// The gang has run: a schedule swap now needs a reset first.
			if err := swapped.ResetLs(sc.cfg.Ls); err == nil {
				t.Fatal("ResetLs after Run: want an error")
			}
			if err := swapped.ResetBatch(1); err != nil {
				t.Fatal(err)
			}
			for _, bad := range [][]int{{9, 0, 0, 0}, {0, 1}} {
				if err := swapped.ResetLs(bad); err == nil {
					t.Fatalf("ResetLs(%v): want an error", bad)
				}
			}
		})
	}
}

// runGang attaches runs first..first+width-1 of a scenario to the lanes of
// a reset cluster and runs the gang.
func runGang(t *testing.T, sc batchScenario, bc *BatchDiagCluster, first, width int) {
	t.Helper()
	for lane := 0; lane < width; lane++ {
		lane := lane
		h := sc.attach(first+lane, bc.Schedule(), func(d tdma.Disturbance) { bc.AddLaneDisturbance(lane, d) })
		bc.SetLaneHorizon(lane, h)
	}
	if err := bc.Run(); err != nil {
		t.Fatal(err)
	}
}

// sameLanes requires two clusters' lanes to hold the same collectors,
// truth rows, final penalties and, in membership mode, views.
func sameLanes(t *testing.T, label string, got, want *BatchDiagCluster, width int) {
	t.Helper()
	n := want.Config().N
	for lane := 0; lane < width; lane++ {
		if !reflect.DeepEqual(got.LaneCollector(lane), want.LaneCollector(lane)) {
			t.Fatalf("%s lane %d: collector diverges from a fresh cluster", label, lane)
		}
		if !reflect.DeepEqual(got.truth[lane], want.truth[lane]) {
			t.Fatalf("%s lane %d: truth diverges from a fresh cluster", label, lane)
		}
		for id := 1; id <= n; id++ {
			for j := 1; j <= n; j++ {
				if g, w := got.LaneFinalPenalty(lane, id, j), want.LaneFinalPenalty(lane, id, j); g != w {
					t.Fatalf("%s lane %d observer %d penalty(%d) = %d, fresh cluster %d", label, lane, id, j, g, w)
				}
			}
			if want.Config().Mode == core.ModeMembership {
				if g, w := got.LaneView(lane, id), want.LaneView(lane, id); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s lane %d node %d view %+v, fresh cluster %+v", label, lane, id, g, w)
				}
			}
		}
	}
}

// TestBatchClusterRunResumes pins Run's resume contract, on which early
// stopping campaigns rely: running a gang to a low horizon, raising the
// horizons and running on, in several steps, leaves every lane exactly as
// one Run to the final horizons does — collectors, ground truth, final
// penalties, views, telemetry and the flushed trace.
func TestBatchClusterRunResumes(t *testing.T) {
	for _, sc := range batchScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			type gang struct {
				bc   *BatchDiagCluster
				sink *trace.Recorder
				regs []*metrics.Registry
			}
			build := func() gang {
				g := gang{sink: new(trace.Recorder)}
				cfg := sc.cfg
				cfg.Sink = g.sink
				bc, err := NewBatchDiagCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				g.bc = bc
				width := core.BatchLanes(bc.Config().N)
				for lane := 0; lane < width; lane++ {
					reg := metrics.New()
					sm := core.NewStepMetrics(reg)
					for id := 1; id <= bc.Config().N; id++ {
						bc.Proto(id).SetLaneMetrics(lane, sm)
					}
					g.regs = append(g.regs, reg)
				}
				return g
			}
			once, resumed := build(), build()
			width := len(once.regs)
			horizons := make([]int, width)
			for lane := 0; lane < width; lane++ {
				lane := lane
				horizons[lane] = sc.attach(lane, once.bc.Schedule(), func(d tdma.Disturbance) { once.bc.AddLaneDisturbance(lane, d) })
				sc.attach(lane, resumed.bc.Schedule(), func(d tdma.Disturbance) { resumed.bc.AddLaneDisturbance(lane, d) })
				once.bc.SetLaneHorizon(lane, horizons[lane])
			}
			if err := once.bc.Run(); err != nil {
				t.Fatal(err)
			}
			for _, cut := range []int{1, 6, 11, 1 << 30} {
				for lane, h := range horizons {
					resumed.bc.SetLaneHorizon(lane, min(h, cut))
				}
				if err := resumed.bc.Run(); err != nil {
					t.Fatal(err)
				}
			}
			sameLanes(t, "resumed", resumed.bc, once.bc, width)
			for lane := 0; lane < width; lane++ {
				once.sink.Reset()
				once.bc.FlushLaneTrace(lane)
				resumed.sink.Reset()
				resumed.bc.FlushLaneTrace(lane)
				if i := trace.FirstDivergence(resumed.sink.Events(), once.sink.Events()); i >= 0 {
					t.Fatalf("lane %d trace diverges at event %d", lane, i)
				}
				got, err := json.Marshal(resumed.regs[lane].Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(once.regs[lane].Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("lane %d metrics snapshot diverges:\n got %s\nwant %s", lane, got, want)
				}
			}
		})
	}
}

// TestBatchClusterRejects pins the constructor's validation surface.
func TestBatchClusterRejects(t *testing.T) {
	if _, err := NewBatchDiagCluster(ClusterConfig{N: 65}); err == nil {
		t.Fatal("N=65 accepted")
	}
	bc, err := NewBatchDiagCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.ResetBatch(16); err != nil {
		t.Fatalf("16-lane gang refused at N=4: %v", err)
	}
	if err := bc.ResetBatch(0); err == nil {
		t.Fatal("0-lane gang accepted")
	}
	if err := bc.ResetBatch(17); err == nil {
		t.Fatal("17-lane gang accepted")
	}
}
