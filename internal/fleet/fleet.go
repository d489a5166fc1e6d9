package fleet

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"ttdiag/internal/campaign"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// defaultShardRoundLen is the paper's prototype TDMA round (2.5 ms at N = 4);
// Config.shardRoundLen scales it with the shard size to keep slots constant.
const defaultShardRoundLen = sim.DefaultRoundLen

// gatewaySlotLen is the slot of the gateway TDMA round, the prototype's
// 625 µs: the round of S gateways lasts S slots, so it divides evenly at any
// shard count.
const gatewaySlotLen = defaultShardRoundLen / 4

// ShardRun is the view a Hooks callback gets of one shard's repetition.
// Shards of equal size run lane-packed: each is one lane of a shared
// sim.BatchDiagCluster (already reset, the shard's horizon set), so a hook
// addresses its shard through Lane — Cluster.AddLaneDisturbance to inject
// (the disturbance must be receiver-uniform or a tdma.Blinder),
// Cluster.LaneCollector and Cluster.LaneTruth to audit. Everything is
// borrowed for the duration of the callback chain: the cluster runs other
// shards once the gang completes.
type ShardRun struct {
	// Shard is the 0-based shard index.
	Shard int
	// Size is the shard's node count.
	Size int
	// First is the 0-based global index of the shard's first node (shard s
	// covers global nodes First..First+Size-1).
	First int
	// Cluster is the lane-packed cluster the shard runs in, and Lane the
	// shard's lane in it.
	Cluster *sim.BatchDiagCluster
	Lane    int
	// Pool derives named rng streams; name them by shard (and run) so draws
	// are identical at any worker count, shard order and lane placement.
	Pool *rng.Pool
}

// Hooks parameterises one fleet repetition. All fields are optional.
type Hooks struct {
	// Prepare runs before a shard's rounds execute: inject disturbances,
	// wire extra observers. The returned audit closure (may be nil) runs
	// after the shard's rounds complete and reports a verdict ("" = pass).
	Prepare func(sr ShardRun) (audit func() string, err error)
	// GatewayDrop reports whether gateway g's frame (1-based) is lost on the
	// inter-cluster bus in the given gateway round — the benign gateway
	// fault and whole-shard outage model. Run asks it once per round and
	// gateway, round by round, before the gateway rounds execute.
	GatewayDrop func(round, gateway int) bool
}

// ShardResult is one shard's outcome of a repetition.
type ShardResult struct {
	// Size and First mirror the ShardRun geometry.
	Size, First int
	// Verdict is the Prepare audit's report ("" = pass or not audited).
	Verdict string
	// Summaries[r] is the cluster-health summary the shard's gateway
	// published in round r.
	Summaries []core.ShardSummary
	// Final is the last round's summary.
	Final core.ShardSummary
}

// GatewayResult is the fleet-level outcome of a repetition (nil when the
// campaign runs a single shard — the gateway level needs at least two).
type GatewayResult struct {
	// HVs[d][g] is the packed consistent health vector gateway g (1-based)
	// agreed for diagnosed gateway round d; the zero value (Known == 0)
	// where g diagnosed nothing.
	HVs [][]core.BitSyndrome
	// IsolationRound[t] is the first gateway round in which any gateway
	// isolated shard t's gateway (1-based), or -1.
	IsolationRound []int
	// FinalActive[g] is gateway g's activity mask after the last round.
	FinalActive []uint64
	// Received[g] is the last ShardSummary delivered in gateway g's frame;
	// the zero value when no frame of g's got through.
	Received []core.ShardSummary
	// Drops counts the gateway frames lost to GatewayDrop.
	Drops int
}

// Result is one fleet repetition's outcome, index-addressed by shard.
type Result struct {
	Shards  []ShardResult
	Gateway *GatewayResult
}

// Campaign is a reusable hierarchical fleet: per-worker lane-packed shard
// clusters, the serial gateway cluster, and the per-shard metrics
// registries, built once and driven once per repetition by Run.
type Campaign struct {
	cfg   Config
	sizes []int
	first []int

	// gw is the gateway level (nil for a single shard): the same protocol
	// one level up, with the S shard gateways as the nodes of a one-lane
	// sim.BatchDiagCluster. Every gateway's job runs before the round's
	// first slot and its frame goes out in the same round
	// (AllSendCurrRound), so the fleet-level detection latency is two
	// gateway rounds. A frame carries the S-bit syndrome over the shards
	// plus the sender's ShardSummary; a lost frame is a slot burst on the
	// lane, the benign fault of the paper's bus. gwRes is the result its
	// OnOutput fills during Run, and bursts the drop scratch.
	gw     *sim.BatchDiagCluster
	gwRes  *GatewayResult
	bursts []fault.Burst

	// gangs lists the shards that run together, lane by lane, in one
	// BatchDiagCluster: equal-sized shards in dispatch order, at most
	// core.BatchLanes(size) per gang. Gangs are the pool's jobs.
	gangs [][]int

	// Per-shard registries plus one gateway registry, acquired serially at
	// construction so the WorkerSet merge is invariant to worker count and
	// shard order. Entry i belongs to shard i alone; only the worker
	// currently executing shard i writes it.
	shardSM  []*core.StepMetrics
	shardSys []*sim.RunMetrics
	gwReg    *metrics.Registry
	gwRounds *metrics.Counter
	gwDrops  *metrics.Counter
	gwIsol   *metrics.Counter
	runsCt   *metrics.Counter
	lanesCt  *metrics.Counter
	gangsCt  *metrics.Counter

	// summaries[i][r] is shard i's round-r summary scratch, reused across
	// repetitions (each shard writes only its own row during the parallel
	// phase).
	summaries [][]core.ShardSummary
	// health is the per-shard previous summary health, scratch for the
	// causal shard-health transition events (Config.Sink).
	health []core.Opinion

	// idle keeps the shard workers of earlier repetitions for reuse (their
	// lane-packed clusters are the expensive part to build), busy those
	// handed to the current Run's pool; mu guards both.
	mu         sync.Mutex
	idle, busy []*shardWorker
}

// New builds a fleet campaign.
func New(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizes, err := Partition(cfg.Nodes, cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		cfg:       cfg,
		sizes:     sizes,
		first:     make([]int, cfg.Shards),
		summaries: make([][]core.ShardSummary, cfg.Shards),
		health:    make([]core.Opinion, cfg.Shards),
		shardSM:   make([]*core.StepMetrics, cfg.Shards),
		shardSys:  make([]*sim.RunMetrics, cfg.Shards),
	}
	at := 0
	for i, size := range sizes {
		c.first[i] = at
		at += size
		c.summaries[i] = make([]core.ShardSummary, cfg.Rounds)
		if reg := cfg.Metrics.Worker(); reg != nil {
			c.shardSM[i] = core.NewStepMetrics(reg)
			c.shardSys[i] = sim.NewRunMetrics(reg)
		}
	}
	c.gwReg = cfg.Metrics.Worker()
	c.gwRounds = c.gwReg.Counter("fleet/gateway/rounds")
	c.gwDrops = c.gwReg.Counter("fleet/gateway/frames_dropped")
	c.gwIsol = c.gwReg.Counter("fleet/gateway/isolations")
	c.runsCt = c.gwReg.Counter("fleet/runs")
	c.lanesCt = c.gwReg.Counter("batch/lanes")
	c.gangsCt = c.gwReg.Counter("batch/gangs")
	c.gwReg.Gauge("fleet/nodes").Observe(int64(cfg.Nodes))
	c.gwReg.Gauge("fleet/shards").Observe(int64(cfg.Shards))
	c.planGangs(nil)
	if cfg.Shards >= 2 {
		gw, err := sim.NewBatchDiagCluster(sim.ClusterConfig{
			N:                cfg.Shards,
			RoundLen:         gatewaySlotLen * time.Duration(cfg.Shards),
			Ls:               sim.Uniform(cfg.Shards, 0),
			AllSendCurrRound: true,
			PR:               cfg.GatewayPR,
		})
		if err != nil {
			return nil, err
		}
		gw.OnOutput = c.observeGateway
		c.gw = gw
	}
	return c, nil
}

// Config returns the campaign's (defaulted) configuration.
func (c *Campaign) Config() Config { return c.cfg }

// Sizes returns the shard sizes (do not mutate).
func (c *Campaign) Sizes() []int { return c.sizes }

// GatewayRegistry exposes the fleet-level metrics registry (nil when
// metrics are off) for experiment-level instruments such as outage-isolation
// latency histograms.
func (c *Campaign) GatewayRegistry() *metrics.Registry { return c.gwReg }

// planGangs groups the shards into lane-packed gangs: shards of equal size,
// taken in dispatch order (perm, or identity when nil), fill consecutive
// lanes until the ⌊64/size⌋-lane word is full. An even partition has at most
// two sizes, so at most two gangs are ragged.
func (c *Campaign) planGangs(perm []int) {
	c.gangs = nil
	open := make(map[int]int) // size -> index of its gang being filled
	for job := 0; job < c.cfg.Shards; job++ {
		shard := job
		if perm != nil {
			shard = perm[job]
		}
		size := c.sizes[shard]
		g, ok := open[size]
		if !ok || len(c.gangs[g]) == core.BatchLanes(size) {
			g = len(c.gangs)
			open[size] = g
			c.gangs = append(c.gangs, nil)
		}
		c.gangs[g] = append(c.gangs[g], shard)
	}
}

// shardWorker is one pool worker's reusable state: a stream pool plus one
// lane-packed cluster per shard size it has executed (an even partition has
// at most two distinct sizes), and the gang it is running.
type shardWorker struct {
	c        *Campaign
	src      *rng.Source
	pool     *rng.Pool
	clusters map[int]*sim.BatchDiagCluster
	gang     []int
	audits   []func() string
}

// worker hands the next pool worker of a Run its state, recycling an idle
// worker of an earlier Run when there is one (its stream pool too when the
// source is the same).
func (c *Campaign) worker(src *rng.Source) *shardWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	var w *shardWorker
	if n := len(c.idle); n > 0 {
		w, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		w = &shardWorker{c: c, clusters: make(map[int]*sim.BatchDiagCluster)}
	}
	if w.src != src {
		w.src, w.pool = src, src.NewPool()
	}
	c.busy = append(c.busy, w)
	return w
}

// cluster returns the worker's lane-packed cluster for shards of the given
// size, building it on first use.
func (w *shardWorker) cluster(size int) (*sim.BatchDiagCluster, error) {
	if cl, ok := w.clusters[size]; ok {
		return cl, nil
	}
	cl, err := sim.NewBatchDiagCluster(sim.ClusterConfig{
		N:        size,
		RoundLen: w.c.cfg.shardRoundLen(size),
		PR:       w.c.cfg.ShardPR,
	})
	if err != nil {
		return nil, err
	}
	cl.OnOutput = w.publish
	w.clusters[size] = cl
	return cl, nil
}

// publish records the ShardSummary every shard's gateway (node 1 of its
// lane) publishes each round: how many nodes the shard's penalty/reward
// state has isolated and how many entries of the latest consistent health
// vector are faulty. out is the cluster's scratch: only counts are kept.
//
//ttdiag:noretain params
func (w *shardWorker) publish(id int, out *core.BatchRoundOutput) {
	if id != 1 || out.Round < 0 || out.Round >= w.c.cfg.Rounds {
		return
	}
	for lane, shard := range w.gang {
		size := w.c.sizes[shard]
		s := core.ShardSummary{Size: size, Isolated: size - bits.OnesCount64(out.LaneActiveMask(lane, size))}
		if out.Warm {
			s.Faulty = out.LaneConsHV(lane, size).CountFaulty(size)
		}
		w.c.summaries[shard][out.Round] = s
	}
}

// runGang executes one repetition of a gang of equal-sized shards, one per
// lane: reset, attach telemetry, prepare, run, observe, audit. It writes
// each shard's summary timeline and result into campaign-owned,
// index-addressed storage — safe concurrently because every shard belongs
// to exactly one gang.
func (w *shardWorker) runGang(gang []int, hooks Hooks, res []ShardResult) error {
	c := w.c
	size := c.sizes[gang[0]]
	cl, err := w.cluster(size)
	if err != nil {
		return err
	}
	w.pool.Recycle()
	if err := cl.ResetBatch(len(gang)); err != nil {
		return err
	}
	w.gang = gang
	w.audits = w.audits[:0]
	for lane, shard := range gang {
		cl.SetLaneHorizon(lane, c.cfg.Rounds)
		if sm := c.shardSM[shard]; sm != nil {
			for id := 1; id <= size; id++ {
				cl.Proto(id).SetLaneMetrics(lane, sm)
			}
		}
		var audit func() string
		if hooks.Prepare != nil {
			audit, err = hooks.Prepare(ShardRun{
				Shard: shard, Size: size, First: c.first[shard],
				Cluster: cl, Lane: lane, Pool: w.pool,
			})
			if err != nil {
				return err
			}
		}
		w.audits = append(w.audits, audit)
	}
	if err := cl.Run(); err != nil {
		return err
	}
	for lane, shard := range gang {
		if sys := c.shardSys[shard]; sys != nil {
			truth := cl.LaneTruth(lane)
			sys.ObserveTruth(truth)
			sys.ObserveIsolationLatency(truth, cl.LaneCollector(lane))
		}
		sums := c.summaries[shard]
		r := ShardResult{Size: size, First: c.first[shard], Summaries: sums, Final: sums[c.cfg.Rounds-1]}
		if audit := w.audits[lane]; audit != nil {
			r.Verdict = audit()
		}
		res[shard] = r
	}
	return nil
}

// Run executes one fleet repetition: all shards, gang by gang, in parallel
// on the campaign pool, then the gateway round schedule serially over the
// recorded summary timelines. The two-phase split is exactly equivalent to interleaving
// because the protocol is an add-on: fleet-level diagnosis never feeds back
// into intra-shard traffic.
//
// src seeds the per-worker stream pools; hooks inject the repetition's fault
// scenario. The returned Result aliases campaign-owned summary scratch that
// the next Run overwrites — copy what must outlive it.
func (c *Campaign) Run(src *rng.Source, hooks Hooks) (*Result, error) {
	c.runsCt.Add(1)
	c.lanesCt.Add(int64(c.cfg.Shards))
	c.gangsCt.Add(int64(len(c.gangs)))
	res := &Result{Shards: make([]ShardResult, c.cfg.Shards)}
	_, err := campaign.RunPooledWith(campaign.Options{Workers: c.cfg.Workers}, len(c.gangs),
		func() (*shardWorker, error) { return c.worker(src), nil },
		func(w *shardWorker, job int) (struct{}, error) {
			return struct{}{}, w.runGang(c.gangs[job], hooks, res.Shards)
		})
	c.idle, c.busy = append(c.idle, c.busy...), c.busy[:0]
	if err != nil {
		return nil, err
	}
	if c.cfg.Sink != nil {
		// Causal emission happens serially over the recorded summary
		// timelines, never inside the parallel shard phase, so the stream is
		// identical at any worker count and shard order.
		c.emitShardHealth()
	}
	if c.gw == nil {
		return res, nil
	}

	gr, err := c.runGateways(hooks)
	if err != nil {
		return nil, err
	}
	res.Gateway = gr
	return res, nil
}

// runGateways is the gateway phase: one fleet-level TDMA round per
// intra-shard round, each carrying the summaries the shards published in
// that round. The frames hooks.GatewayDrop loses become one-slot bursts of
// a fault.Train on the gateway lane, so the lane stays quiet between them.
func (c *Campaign) runGateways(hooks Hooks) (*GatewayResult, error) {
	s, rounds := c.cfg.Shards, c.cfg.Rounds
	if err := c.gw.ResetBatch(1); err != nil {
		return nil, err
	}
	c.gw.SetLaneHorizon(0, rounds)
	if hooks.GatewayDrop != nil {
		c.bursts = c.bursts[:0]
		for k := 0; k < rounds; k++ {
			for g := 1; g <= s; g++ {
				if hooks.GatewayDrop(k, g) {
					c.bursts = append(c.bursts, fault.SlotBurst(c.gw.Schedule(), k, g, 1))
				}
			}
		}
		if len(c.bursts) > 0 {
			c.gw.AddLaneDisturbance(0, fault.NewTrain(c.bursts...))
		}
	}
	gr := &GatewayResult{
		HVs:            make([][]core.BitSyndrome, rounds),
		IsolationRound: make([]int, s+1),
		FinalActive:    make([]uint64, s+1),
		Received:       make([]core.ShardSummary, s+1),
	}
	for t := range gr.IsolationRound {
		gr.IsolationRound[t] = -1
	}
	c.gwRes = gr
	err := c.gw.Run()
	c.gwRes = nil
	if err != nil {
		return nil, err
	}
	// A frame, and with it the summary it carries, is delivered exactly
	// when its slot's ground truth is correct.
	truth := c.gw.LaneTruth(0)
	for k := 0; k < rounds; k++ {
		for g, class := range truth.Truth(k)[1:] {
			if class == tdma.OutcomeCorrect {
				gr.Received[g+1] = c.summaries[g][k]
			} else {
				gr.Drops++
			}
		}
	}
	c.gwRounds.Add(int64(rounds))
	c.gwDrops.Add(int64(gr.Drops))
	return gr, nil
}

// observeGateway records gateway id's job output of one gateway round into
// the repetition's GatewayResult: its health vector, its activity mask and
// the shard isolations it decides, the first of each with a causal event.
//
//ttdiag:noretain params
func (c *Campaign) observeGateway(id int, out *core.BatchRoundOutput) {
	gr, s := c.gwRes, c.cfg.Shards
	if out.Warm && out.DiagnosedRound >= 0 {
		if gr.HVs[out.DiagnosedRound] == nil {
			gr.HVs[out.DiagnosedRound] = make([]core.BitSyndrome, s+1)
		}
		gr.HVs[out.DiagnosedRound][id] = out.LaneConsHV(0, s)
	}
	gr.FinalActive[id] = out.LaneActiveMask(0, s)
	for iso := out.LaneIsolated(0, s); iso != 0; iso &= iso - 1 {
		t := bits.TrailingZeros64(iso) + 1
		c.gwIsol.Add(1)
		if gr.IsolationRound[t] >= 0 {
			continue
		}
		gr.IsolationRound[t] = out.Round
		if c.cfg.Sink != nil {
			// One event per shard isolation: id is the first gateway seen
			// isolating (all obedient gateways decide identically in the
			// same round).
			c.cfg.Sink.Record(trace.Event{
				Round:     out.Round,
				Kind:      trace.KindIsolation,
				Node:      id,
				Subject:   t,
				Penalty:   c.gw.Proto(id).LanePenalty(0, t),
				Threshold: c.cfg.GatewayPR.PenaltyThreshold,
				Detail:    "gateway level",
			})
		}
	}
}

// emitShardHealth streams one KindShardHealth event per shard-summary
// health transition, chronological (round-major, then shard). The baseline
// is Healthy — the nominal state — so quiet fleets emit nothing; Subject is
// the 1-based shard index.
func (c *Campaign) emitShardHealth() {
	for i := range c.health {
		c.health[i] = core.Healthy
	}
	for k := 0; k < c.cfg.Rounds; k++ {
		for i := 0; i < c.cfg.Shards; i++ {
			h := c.summaries[i][k].Health()
			if h == c.health[i] {
				continue
			}
			c.health[i] = h
			s := c.summaries[i][k]
			c.cfg.Sink.Record(trace.Event{
				Round:   k,
				Kind:    trace.KindShardHealth,
				Subject: i + 1,
				Detail:  fmt.Sprintf("%s (%d/%d isolated, %d faulty)", healthName(h), s.Isolated, s.Size, s.Faulty),
			})
		}
	}
}

// healthName renders a shard-health opinion for event details (the Opinion
// String form is the terse matrix glyph).
func healthName(h core.Opinion) string {
	switch h {
	case core.Healthy:
		return "healthy"
	case core.Faulty:
		return "faulty"
	default:
		return "erased"
	}
}

// setOrder installs a shard dispatch permutation (test seam), which also
// moves shards to other gangs and lanes. perm must be a permutation of
// 0..Shards-1; nil restores identity dispatch.
func (c *Campaign) setOrder(perm []int) error {
	if perm == nil {
		c.planGangs(nil)
		return nil
	}
	if len(perm) != c.cfg.Shards {
		return fmt.Errorf("fleet: order has %d entries, want %d", len(perm), c.cfg.Shards)
	}
	seen := make([]bool, c.cfg.Shards)
	for _, p := range perm {
		if p < 0 || p >= c.cfg.Shards || seen[p] {
			return fmt.Errorf("fleet: order is not a permutation of 0..%d", c.cfg.Shards-1)
		}
		seen[p] = true
	}
	c.planGangs(perm)
	return nil
}
