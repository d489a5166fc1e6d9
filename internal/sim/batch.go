// Lane-packed batched simulation front end: one BatchDiagCluster advances
// G = ⌊64/N⌋ independent Monte-Carlo repetitions ("lanes") of the same
// diagnostic or membership cluster per TDMA round. Each node is a single
// core.BatchProtocol whose syndrome planes hold all lanes side by side, so
// one StepBatch call per node per round replaces G per-run protocol
// executions, and the TDMA delivery work is done once per (lane, slot)
// instead of once per (lane, slot, receiver).
//
// The batched front end is an executable optimisation of the lock-step
// Engine, not a replacement: its observable outputs — collector contents,
// ground-truth rows, penalty counters, membership views, telemetry, trace
// events — are pinned byte-exact to G per-run Engine executions by
// TestBatchClusterEquivalence.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
	"ttdiag/internal/membership"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// collRing is the depth of the per-node collision-verdict ring, mirroring
// the tdma.Controller history depth.
const collRing = 16

// BatchDiagCluster is a diagnostic or membership cluster whose repetitions
// run lane-packed: every node's protocol advances all lanes with one
// StepBatch per round, and the bus delivery is evaluated once per lane and
// slot. In membership mode every node also keeps each lane's view
// (membership.Views), as a per-run MembershipRunner keeps its own.
//
// The shared-plane layout needs every attached disturbance to be either
// receiver-uniform — it degrades the delivery identically for every
// receiver (fault.Train, fault.MaliciousSyndrome) — or a tdma.Blinder that
// invalidates it at a known receiver subset (fault.SOS,
// fault.ReceiverBlind), which the per-observer blind masks carry. See
// AddLaneDisturbance.
type BatchDiagCluster struct {
	cfg   ClusterConfig // normalized; Ls cluster-owned
	sched *tdma.Schedule
	n     int
	max   int // lane capacity, BatchLanes(N)
	lanes int // live lanes of the current gang
	round int

	protos []*core.BatchProtocol // 1-based; entry 0 is nil
	lag    []int                 // 1-based; per-node diagnosis lag
	// views holds each node's lane views in membership mode (1-based); it
	// is nil in diagnostic mode.
	views []*membership.Views
	// jobs lists the node ids in the order their diagnostic jobs run within
	// a round: by job position l_i, ties by id, as Engine.RunRound does.
	jobs []int

	// observe mirrors the per-run activity policy: with a reintegration
	// threshold the runners keep listening to isolated nodes, without one
	// an isolation permanently drops the sender from the observer's view.
	observe bool

	laneAll uint64 // PlaneMask(N), one lane's segment
	laneRep uint64 // bit r·N set for every live lane
	allB    uint64 // laneRep · laneAll: every live lane's node bits

	// Shared receiver state. Every receiver that a disturbance does not
	// blind observes the same delivery: rows[j] holds sender j's last
	// decoded wire word lane-packed, presentB the lanes·senders whose
	// stored payload is valid and decodable.
	rows     []core.BitSyndrome // 1-based by interface variable
	presentB uint64
	// healthyRows marks (bit s-1) the senders whose last wire word is
	// all-Healthy in every live lane: the jobs' core.BatchRoundInput
	// HealthyRows hint, kept in O(1) per slot.
	healthyRows uint64

	// Per-observer divergence from the shared planes. ign[i] marks the
	// senders observer i has stopped listening to (monotone when observe
	// is false, constant zero otherwise), ownClear[s] the lanes in which
	// node s's last own-slot transmission collided (the sender-side
	// loopback invalidation), both lane-packed at the sender's column.
	ign      []uint64 // 1-based by observer
	ownClear []uint64 // 1-based by sender

	// blind[i] marks the lanes·senders whose last transmission a
	// tdma.Blinder made locally detectable at observer i, lane-packed at
	// the sender's column. Only gangs with a blinder in some lane's chain
	// (blindLanes, bit r = lane r) refresh it; otherwise it stays zero.
	blind      []uint64 // 1-based by observer
	blindLanes uint64

	// staged[s] is node s's outbox: the lane-packed wire word its next
	// slot-s transmission carries (Op∧Known of the last StepBatch send).
	staged []uint64 // 1-based by sender

	// Per-node collision-verdict rings (flat node·collRing+i), mirroring
	// the controller's 16-deep history: the lanes in which the node's
	// own transmission of a given round collided.
	collRound []int
	collMask  []uint64
	collSeen  []bool

	dist    []tdma.Disturbances // per lane
	horizon []int               // per lane: rounds to record (run length)
	// sole[r] is lane r's disturbance when its chain holds exactly one and
	// that one is a tdma.Quieter, asked directly instead of through the
	// chain; nil otherwise.
	sole []tdma.Quieter

	// wake[s·max+r] is the first round whose slot-s transmission lane r's
	// chain may touch (tdma.Quieter): in every earlier round the lane's
	// slot s is quiet and folds in without running the chain. Zero means
	// "ask at the next transmission". stale[s] marks (bit r) the lanes
	// whose slot-s wake no longer holds, because the lane's chain changed
	// or the lane was restored: they ask at the next transmission whatever
	// their wake says. wakeMin[s] is the least wake of slot s over the live
	// lanes that are not stale, so a slot every lane is quiet in costs one
	// compare, and a slot where only restored lanes must ask costs a
	// question to each of them. loudLanes (bit r) marks the lanes whose
	// chain has no answer: they are never quiet and their wake stays 0.
	wake      []int
	wakeMin   []int    // 1-based by sender
	stale     []uint64 // 1-based by sender
	loudLanes uint64

	// jobIn and jobOut are runJob's StepBatch input and output, reused
	// every job instead of copied through the call. jobIn.Tally is the
	// vote tally every job of the cluster shares: by Theorem 1 the correct
	// observers of a round vote on the same syndromes, so most jobs
	// correct the tally in a few rows instead of voting in full.
	jobIn  core.BatchRoundInput
	jobOut core.BatchRoundOutput

	truth    [][]tdma.OutcomeClass // per lane, flat rows of N+1
	cols     []*Collector          // per lane
	finalPen [][]int64             // per lane, flat observer·(N+1)+j

	payload []byte // EncodedLen(N) transmission scratch
	tx      tdma.Transmission

	// With a trace sink (cfg.Sink), events[r] buffers lane r's flight
	// recording — the engine's job and transmit events plus node 1's causal
	// stream through traces[r] and, in membership mode, its view changes —
	// until FlushLaneTrace; both are nil otherwise.
	events []trace.Recorder
	traces []*core.StepTrace

	// Observation state of ttdiag_invariants builds: the round, node and
	// output the Theorem 1 agreement check compares each job against
	// (invRef 0 before the round's first warm job); invFaults[k%invWindow]
	// the senders of round k whose delivery was benign, asymmetric or
	// malicious (lane-packed, in that order); invTainted the lanes (bit r)
	// that left the fault hypothesis at some point and so the check's
	// scope; and the scratch lane record RestoreLanes re-captures into.
	invRound, invRef int
	invOut           core.BatchRoundOutput
	invFaults        [invWindow][3]uint64
	invTainted       uint64
	invLane          []uint64

	// restoreAcc is RestoreLanes' scratch: the lane-packed bus words of a
	// lane record, assembled from every restored lane before they are
	// written; nil until the first restore.
	restoreAcc []uint64

	// OnOutput, when set, observes every diagnostic job's gang output
	// (node id, all lanes), after the lane collectors recorded it. It is
	// the lane-packed counterpart of DiagRunner.OnOutput and survives
	// ResetBatch. out is cluster-owned scratch, overwritten by the next
	// job: an observer copies what it keeps and is annotated
	// //ttdiag:noretain params.
	OnOutput func(id int, out *core.BatchRoundOutput)
}

// NewBatchDiagCluster builds a lane-packed cluster with capacity for
// BatchLanes(N) repetitions per gang. It honours cfg.Mode: a diagnostic
// cluster matches NewReusableDiagnosticCluster, a membership one
// NewMembershipCluster. A trace sink gives every lane its own event
// buffer, which records what the per-run engine would for that repetition,
// in the same order, and reaches the sink only through FlushLaneTrace. The
// configuration stays caller-owned: its slot layout is copied.
//
//ttdiag:noretain params
func NewBatchDiagCluster(cfg ClusterConfig) (*BatchDiagCluster, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if norm.Mode == 0 {
		norm.Mode = core.ModeDiagnostic
	}
	norm.Ls = append([]int(nil), norm.Ls...)
	maxLanes := core.BatchLanes(norm.N)
	if maxLanes < 1 {
		return nil, fmt.Errorf("sim: N=%d does not fit a 64-bit lane plane", norm.N)
	}
	sched, err := newSchedule(norm)
	if err != nil {
		return nil, err
	}
	// The three per-observer mask families and the stale wake masks share
	// one backing array.
	w := norm.N + 1
	masks := make([]uint64, 4*w)
	c := &BatchDiagCluster{
		cfg:       norm,
		sched:     sched,
		n:         norm.N,
		max:       maxLanes,
		protos:    make([]*core.BatchProtocol, norm.N+1),
		lag:       make([]int, norm.N+1),
		observe:   norm.PR.ReintegrationThreshold > 0,
		laneAll:   core.PlaneMask(norm.N),
		rows:      make([]core.BitSyndrome, norm.N+1),
		ign:       masks[:w:w],
		ownClear:  masks[w : 2*w : 2*w],
		blind:     masks[2*w : 3*w : 3*w],
		stale:     masks[3*w:],
		staged:    make([]uint64, norm.N+1),
		collRound: make([]int, (norm.N+1)*collRing),
		collMask:  make([]uint64, (norm.N+1)*collRing),
		collSeen:  make([]bool, (norm.N+1)*collRing),
		dist:      make([]tdma.Disturbances, maxLanes),
		sole:      make([]tdma.Quieter, maxLanes),
		horizon:   make([]int, maxLanes),
		truth:     make([][]tdma.OutcomeClass, maxLanes),
		cols:      make([]*Collector, maxLanes),
		finalPen:  make([][]int64, maxLanes),
		payload:   make([]byte, core.EncodedLen(norm.N)),
	}
	for id := 1; id <= norm.N; id++ {
		nc := norm.nodeConfig(id)
		p, err := core.NewBatchProtocol(nc, maxLanes)
		if err != nil {
			return nil, err
		}
		c.protos[id] = p
		c.lag[id] = nc.Lag()
	}
	if norm.Mode == core.ModeMembership {
		c.views = make([]*membership.Views, norm.N+1)
		for id := 1; id <= norm.N; id++ {
			c.views[id] = membership.NewViews(norm.N, maxLanes)
		}
	}
	c.tx.Payload = c.payload
	wakes := make([]int, (norm.N+1)*(maxLanes+1))
	c.wake, c.wakeMin = wakes[:(norm.N+1)*maxLanes], wakes[(norm.N+1)*maxLanes:]
	c.jobs = make([]int, 0, norm.N)
	c.orderJobs()
	c.jobIn.Rows = c.rows
	c.jobIn.Tally = core.NewVoteTally(norm.N)
	for r := 0; r < maxLanes; r++ {
		c.cols[r] = NewCollector()
		c.finalPen[r] = make([]int64, (norm.N+1)*(norm.N+1))
	}
	if norm.Sink != nil {
		c.events = make([]trace.Recorder, maxLanes)
		c.traces = make([]*core.StepTrace, maxLanes)
		for r := range c.traces {
			c.traces[r] = core.NewStepTrace(&c.events[r])
		}
	}
	c.ResetBatch(maxLanes)
	return c, nil
}

// NewOneLaneCluster builds a one-lane gang of cfg whose lane records rounds
// 0..rounds-1: a single scenario run on the engine every campaign runs on,
// so the Theorem 1 agreement check of ttdiag_invariants builds covers it.
// Callers attach the scenario with AddLaneDisturbance(0, …) and read lane 0.
//
//ttdiag:noretain params
func NewOneLaneCluster(cfg ClusterConfig, rounds int) (*BatchDiagCluster, error) {
	c, err := NewBatchDiagCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.ResetBatch(1); err != nil {
		return nil, err
	}
	c.SetLaneHorizon(0, rounds)
	return c, nil
}

// orderJobs lists the node ids by job position, ties by id.
func (c *BatchDiagCluster) orderJobs() {
	c.jobs = c.jobs[:0]
	for pos := 0; pos <= c.n; pos++ {
		for id := 1; id <= c.n; id++ {
			if c.cfg.Ls[id-1] == pos {
				c.jobs = append(c.jobs, id)
			}
		}
	}
}

// Config returns the cluster's normalized configuration.
func (c *BatchDiagCluster) Config() ClusterConfig { return c.cfg }

// Schedule returns the cluster's TDMA schedule.
func (c *BatchDiagCluster) Schedule() *tdma.Schedule { return c.sched }

// Lanes returns the live lane count of the current gang.
func (c *BatchDiagCluster) Lanes() int { return c.lanes }

// Proto returns node id's lane-packed protocol, e.g. to attach per-lane
// telemetry via SetLaneMetrics before Run (attachments survive ResetBatch).
func (c *BatchDiagCluster) Proto(id int) *core.BatchProtocol { return c.protos[id] }

// ResetBatch rewinds the cluster for the next gang of `lanes` repetitions
// (a ragged final gang shrinks the lane count): protocols restart their
// warm-up, views return to the initial full view, disturbances and
// horizons are dropped, collectors, ground truth and trace buffers are
// emptied, the live lanes' flight recorders are re-attached to node 1, and
// the bootstrap all-healthy outboxes are re-staged.
func (c *BatchDiagCluster) ResetBatch(lanes int) error {
	if lanes < 1 || lanes > c.max {
		return fmt.Errorf("sim: gang of %d lanes outside 1..%d", lanes, c.max)
	}
	c.lanes = lanes
	c.round = 0
	c.invRef, c.invTainted = 0, 0
	c.invFaults = [invWindow][3]uint64{}
	c.laneRep = 0
	for r := 0; r < lanes; r++ {
		c.laneRep |= 1 << uint(r*c.n)
	}
	c.allB = c.laneRep * c.laneAll
	for id := 1; id <= c.n; id++ {
		c.protos[id].Reset(lanes)
		if c.views != nil {
			c.views[id].Reset()
		}
		c.ign[id] = 0
		c.ownClear[id] = 0
		c.blind[id] = 0
		// The bootstrap outbox is the all-healthy syndrome in every lane,
		// mirroring bootstrapOutboxes on the per-run path.
		c.staged[id] = c.allB
		c.rows[id] = core.BitSyndrome{Op: 0, Known: c.allB}
	}
	c.presentB = 0
	c.healthyRows = 0
	c.blindLanes = 0
	c.loudLanes = 0
	clear(c.wake)
	clear(c.wakeMin)
	clear(c.stale)
	for i := range c.collSeen {
		c.collSeen[i] = false
	}
	for r := 0; r < c.max; r++ {
		c.dist[r] = c.dist[r][:0]
		c.sole[r] = nil
		c.horizon[r] = 0
		c.truth[r] = c.truth[r][:0]
		c.cols[r].Reset()
	}
	if c.traces != nil {
		// Node 1 carries the causal flight recorder, as on the per-run
		// engine (see ClusterConfig.Sink).
		for r := 0; r < lanes; r++ {
			c.events[r].Reset()
			c.protos[1].SetLaneTrace(r, c.traces[r])
		}
	}
	return nil
}

// ResetLs re-pins the internal schedule of a freshly reset gang, after
// ResetBatch and before Run: every node's diagnostic-job position becomes
// ls[i] (0-based, node i+1) and its protocol is reconfigured accordingly,
// so per-repetition random schedules do not rebuild the cluster. The bus
// schedule does not depend on the job positions and is kept.
func (c *BatchDiagCluster) ResetLs(ls []int) error {
	if c.round != 0 {
		return fmt.Errorf("sim: ResetLs after round %d of the gang", c.round)
	}
	if len(ls) != c.n {
		return fmt.Errorf("sim: ResetLs got %d positions, want %d", len(ls), c.n)
	}
	for i, l := range ls {
		if l < 0 || l > c.n-1 {
			return fmt.Errorf("sim: node %d job position %d out of range 0..%d", i+1, l, c.n-1)
		}
		if c.cfg.AllSendCurrRound && l >= i+1 {
			return fmt.Errorf("sim: AllSendCurrRound set but node %d has l=%d (job after its slot)", i+1, l)
		}
	}
	copy(c.cfg.Ls, ls)
	for id := 1; id <= c.n; id++ {
		if err := c.protos[id].ResetConfig(c.cfg.nodeConfig(id)); err != nil {
			return err
		}
	}
	c.orderJobs()
	return nil
}

// AddLaneDisturbance appends a disturbance to one lane's bus filter chain.
//
// The batched bus evaluates each disturbance once per (lane, slot), so it
// must be either receiver-uniform — Deliver does not depend on the rcv
// argument (fault.Train and any burst train, fault.MaliciousSyndrome) — or
// a tdma.Blinder (fault.SOS, fault.ReceiverBlind), whose receiver mask is
// used instead of Deliver. A composite chain (tdma.Disturbances) counts as
// one opaque disturbance and must be receiver-uniform as a whole.
//
// A lane whose every disturbance is a tdma.Quieter skips its chain on the
// slots the chain says it leaves untouched: the transmission is folded in
// as a clean delivery, so the Quieter contract — Deliver and
// SenderCollision return their input, Blinded returns 0, no state
// changes — must hold on every transmission the answer covers. The lane
// asks again once a transmission runs past the answer, and after
// ResetBatch, AddLaneDisturbance or RestoreLanes; a caller that changes a
// disturbance's behaviour in between must re-add or restore the lane. One
// disturbance that is not a Quieter (fault.Predicate, fault.RandomNoise)
// makes the lane run its chain on every slot, as before.
func (c *BatchDiagCluster) AddLaneDisturbance(lane int, d tdma.Disturbance) {
	c.dist[lane] = append(c.dist[lane], d)
	c.sole[lane] = nil
	if len(c.dist[lane]) == 1 {
		c.sole[lane], _ = d.(tdma.Quieter)
	}
	if _, ok := d.(tdma.Blinder); ok {
		c.blindLanes |= 1 << uint(lane)
	}
	if !tdma.Quiets(d) {
		c.loudLanes |= 1 << uint(lane)
	}
	c.resetWake(1 << uint(lane))
}

// resetWake makes the lanes of the mask ask their chain again at their
// next transmission of every slot. Every other lane keeps its wakes, and
// the slots keep their wakeMin fast path.
func (c *BatchDiagCluster) resetWake(lanes uint64) {
	for s := 1; s <= c.n; s++ {
		c.stale[s] |= lanes
	}
}

// SetLaneHorizon pins one lane's repetition length in rounds: the lane's
// ground truth, collector records and telemetry cover rounds 0..rounds-1,
// and its final penalty counters are captured when that round completes.
// Run executes to the maximum horizon over the gang; lanes keep stepping
// past their own horizon (the segments are independent) but record nothing.
// Between two Run calls a horizon may be raised past the rounds already
// run: the lane then records on from where the gang stopped, as though the
// higher horizon had been set before the first Run.
func (c *BatchDiagCluster) SetLaneHorizon(lane, rounds int) {
	c.horizon[lane] = rounds
}

// LaneCollector returns the cluster-owned collector of one lane.
func (c *BatchDiagCluster) LaneCollector(lane int) *Collector { return c.cols[lane] }

// LaneTruth returns a TruthSource view over one lane's recorded ground
// truth, interchangeable with the per-run Engine for the audits and the
// system-level metrics observers.
func (c *BatchDiagCluster) LaneTruth(lane int) TruthSource {
	return laneTruth{c: c, lane: lane}
}

// LaneFinalPenalty returns observer's penalty counter for node j in one
// lane, captured at the lane's horizon (the value a per-run repetition
// ends with).
func (c *BatchDiagCluster) LaneFinalPenalty(lane, observer, j int) int64 {
	return c.finalPen[lane][observer*(c.n+1)+j]
}

// LaneView returns node id's membership view in one lane, as it stood at
// the lane's horizon; membership mode only.
func (c *BatchDiagCluster) LaneView(lane, id int) membership.View {
	return c.views[id].View(lane)
}

// FlushLaneTrace writes one lane's buffered trace events to the cluster's
// sink, in record order, and clears the buffer; a no-op without a sink.
// Campaigns flush the lanes of a completed gang in run order, each after
// its run-boundary note.
func (c *BatchDiagCluster) FlushLaneTrace(lane int) {
	if c.events == nil {
		return
	}
	for _, e := range c.events[lane].Events() {
		c.cfg.Sink.Record(e)
	}
	c.events[lane].Reset()
}

// laneTruth adapts one lane's recorded rows to the TruthSource interface.
type laneTruth struct {
	c    *BatchDiagCluster
	lane int
}

func (t laneTruth) Round() int { return len(t.c.truth[t.lane]) / (t.c.n + 1) }

func (t laneTruth) Truth(round int) []tdma.OutcomeClass {
	w := t.c.n + 1
	rows := t.c.truth[t.lane]
	if round < 0 || (round+1)*w > len(rows) {
		return nil
	}
	return rows[round*w : (round+1)*w : (round+1)*w]
}

// Run executes the gang to the maximum lane horizon. It is the batched
// counterpart of Engine.RunRounds over every repetition of the gang.
// It resumes from the last round run: raising horizons and calling Run
// again continues the gang, and the lanes end exactly as one Run to the
// higher horizons leaves them (collectors, ground truth, final penalties,
// trace). A caller can thus stop a gang early once every lane has what it
// measures.
func (c *BatchDiagCluster) Run() error {
	maxH := 0
	for r := 0; r < c.lanes; r++ {
		if c.horizon[r] > maxH {
			maxH = c.horizon[r]
		}
	}
	for c.round < maxH {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step advances every lane by one round, the gang's Engine.RunRound. A lane
// records (ground truth, collector, final penalties, telemetry, trace)
// only while the round lies inside its horizon; past it the lane keeps
// stepping and records nothing. Callers that read the lane state between
// rounds themselves, such as the splitting estimator, step with horizon 0.
// On error the round's ground-truth rows are dropped and the round is not
// counted.
func (c *BatchDiagCluster) Step() error {
	w := c.n + 1
	k := c.round
	for r := 0; r < c.lanes; r++ {
		if c.horizon[r] == k {
			// The lane's repetition ended last round: detach its
			// telemetry and flight recorder so rounds past the horizon
			// emit nothing, exactly like a per-run repetition that has
			// stopped.
			for id := 1; id <= c.n; id++ {
				c.protos[id].SetLaneMetrics(r, nil)
			}
			if c.traces != nil {
				c.protos[1].SetLaneTrace(r, nil)
			}
		}
		if k < c.horizon[r] {
			// A slot's truth starts as what a quiet transmission
			// records; transmitSlot overwrites the other slots.
			c.truth[r] = append(c.truth[r], 0)
			for i := 1; i < w; i++ {
				c.truth[r] = append(c.truth[r], tdma.OutcomeCorrect)
			}
		}
	}
	if err := c.runRound(k); err != nil {
		for r := 0; r < c.lanes; r++ {
			if k < c.horizon[r] {
				c.truth[r] = c.truth[r][:k*w]
			}
		}
		return err
	}
	c.round++
	for r := 0; r < c.lanes; r++ {
		if c.horizon[r] == c.round {
			c.captureFinal(r)
		}
	}
	return nil
}

// Round returns the next round the gang executes.
func (c *BatchDiagCluster) Round() int { return c.round }

// runRound advances every lane by one TDMA round, mirroring
// Engine.RunRound's slot walk: diagnostic jobs at their positions, then the
// slot transmission, N times.
func (c *BatchDiagCluster) runRound(k int) error {
	next := 0
	for pos := 0; pos <= c.n; pos++ {
		for ; next < len(c.jobs) && c.cfg.Ls[c.jobs[next]-1] == pos; next++ {
			if err := c.runJob(k, c.jobs[next]); err != nil {
				return err
			}
		}
		if pos == c.n {
			break
		}
		c.transmitSlot(k, pos+1)
	}
	return nil
}

// runJob executes node id's diagnostic job for every lane at once.
func (c *BatchDiagCluster) runJob(k, id int) error {
	if c.events != nil {
		at := c.sched.JobTime(k, c.cfg.Ls[id-1])
		for r := 0; r < c.lanes; r++ {
			if k < c.horizon[r] {
				c.events[r].Record(trace.Event{At: at, Round: k, Kind: trace.KindJobRun, Node: id})
			}
		}
	}
	present := c.presentB &^ (c.ign[id] | c.ownClear[id] | c.blind[id])
	var collF uint64
	if d := k - c.lag[id]; d >= 0 {
		i := id*collRing + d%collRing
		if c.collSeen[i] && c.collRound[i] == d {
			collF = c.collMask[i]
		}
	}
	in, out := &c.jobIn, &c.jobOut
	in.Round = k
	in.Present = present
	in.Validity = core.BitSyndrome{Op: present, Known: c.allB}
	in.CollisionFaulty = collF
	in.HealthyRows = c.healthyRows
	if err := c.protos[id].StepBatchInto(in, out); err != nil {
		return fmt.Errorf("sim: node %d round %d: %w", id, k, err)
	}
	if invariant.Enabled && out.Warm {
		c.checkAgreement(id, out)
	}
	c.staged[id] = out.SendOp & out.SendKnown
	if !c.observe {
		// No reintegration: an isolation permanently drops the sender
		// from this observer's view, which is what the per-run
		// SetIgnored(j, true) does to the controller.
		c.ign[id] |= c.allB &^ out.ActiveMask
	}
	var live uint64 // lanes still inside their horizon
	for r := 0; r < c.lanes; r++ {
		if out.Round >= c.horizon[r] {
			continue
		}
		live |= 1 << uint(r)
		col := c.cols[r]
		if out.Warm {
			col.setHV(out.DiagnosedRound, id, c.n, out.LaneConsHV(r, c.n))
		}
		col.addDecisions(id, out.Round, out.LaneIsolated(r, c.n), out.LaneReintegrated(r, c.n))
	}
	if c.views != nil {
		c.installViews(id, out, live)
	}
	if c.OnOutput != nil {
		c.OnOutput(id, out)
	}
	return nil
}

// invWindow is the depth of the fault history the agreement check
// scopes lanes by: the diagnosed round, the rounds its syndromes are
// disseminated in and a margin, for every diagnosis lag.
const invWindow = 8

// checkAgreement asserts Theorem 1 across the observers of one round
// (ttdiag_invariants builds only): every job that produced health vectors
// must diagnose the same round as the round's first such job and agree
// with it on the consistent health vector of every lane inside the fault
// hypothesis, one word compare per observer. A lane leaves the check for
// good once the faulty senders of the last invWindow rounds break
// N > 2a + 2s + b + 1 (isolated senders count as benign): observers may
// then disagree, and their counters stay apart.
func (c *BatchDiagCluster) checkAgreement(id int, out *core.BatchRoundOutput) {
	c.invTainted |= c.outsideHypothesis()
	if c.invRef == 0 || c.invRound != out.Round {
		c.invRound, c.invRef, c.invOut = out.Round, id, *out
		return
	}
	ref := &c.invOut
	if out.DiagnosedRound != ref.DiagnosedRound {
		invariant.Checkf(false, "sim: round %d: nodes %d and %d diagnose different rounds (%d vs %d)",
			out.Round, c.invRef, id, ref.DiagnosedRound, out.DiagnosedRound)
	}
	scope := c.allB &^ (expandColumn(c.invTainted, 0, c.n) * c.laneAll)
	if diff := ((out.ConsOp ^ ref.ConsOp) | (out.ConsKnown ^ ref.ConsKnown)) & scope; diff != 0 {
		lane := bits.TrailingZeros64(diff) / c.n
		invariant.Checkf(false, "sim: round %d lane %d: health vectors diverge across observers: node %d says %s, node %d says %s",
			out.Round, lane, c.invRef, ref.LaneConsHV(lane, c.n).String(c.n), id, out.LaneConsHV(lane, c.n).String(c.n))
	}
}

// outsideHypothesis returns the lanes (bit r) whose faulty senders over
// the fault history break N > 2a + 2s + b + 1. A sender counts in its
// worst class (malicious, then asymmetric, then benign); the history may
// still hold the senders of invWindow rounds ago whose slot this round
// has not reached, which only makes the scope smaller.
func (c *BatchDiagCluster) outsideHypothesis() uint64 {
	var b, a, m uint64
	for _, f := range c.invFaults {
		b, a, m = b|f[0], a|f[1], m|f[2]
	}
	for id := 1; id <= c.n; id++ {
		b |= c.ign[id]
	}
	var out uint64
	for r := 0; r < c.lanes; r++ {
		sh := uint(r * c.n)
		ml := m >> sh & c.laneAll
		al := a >> sh & c.laneAll &^ ml
		bl := b >> sh & c.laneAll &^ (al | ml)
		if c.n <= 2*bits.OnesCount64(al)+2*bits.OnesCount64(ml)+bits.OnesCount64(bl)+1 {
			out |= 1 << uint(r)
		}
	}
	return out
}

// noteFault records the outcome class of lane r's slot-col delivery in
// round k for the agreement check's scope: benign when invalid at every
// receiver other than the sender, asymmetric when invalid at some of
// them, malicious when valid with altered payload bytes.
func (c *BatchDiagCluster) noteFault(k, r int, col uint, valid, untouched bool, blinded uint64) {
	bit := uint64(1) << (uint(r*c.n) + col)
	f := &c.invFaults[k%invWindow]
	for i := range f {
		f[i] &^= bit
	}
	others := c.laneAll &^ (1 << col)
	switch bo := blinded & others; {
	case !valid || bo == others:
		f[0] |= bit
	case bo != 0:
		f[1] |= bit
	case !untouched:
		f[2] |= bit
	}
}

// installViews folds node id's gang output into its lane views, for the
// lanes still inside their horizon, and records each changed lane's view
// change after node 1's causal events of the round, as a per-run
// MembershipRunner does.
func (c *BatchDiagCluster) installViews(id int, out *core.BatchRoundOutput, live uint64) {
	changed := c.views[id].Install(out.Round, out.ConsOp, out.ConsKnown, live)
	if id != 1 || c.events == nil {
		return
	}
	for ; changed != 0; changed &= changed - 1 {
		r := bits.TrailingZeros64(changed)
		c.events[r].Record(viewChangeEvent(out.Round, id, c.views[id].View(r)))
	}
}

// transmitSlot broadcasts node s's staged outbox in every lane. The lanes
// whose chain leaves the transmission untouched (quietLanes) fold in with
// word operations: every receiver stores the staged word, valid, and the
// sender reads it back. Every other lane encodes its wire word, runs its
// disturbance chain once (uniform disturbances at representative
// receiver 1, blinders as receiver masks) and folds the delivery into the
// shared planes, the blind masks and the sender's collision ring. Each
// lane records its ground truth.
func (c *BatchDiagCluster) transmitSlot(k, s int) {
	start, end := c.sched.SlotWindow(k, s)
	n := c.n
	encLen := len(c.payload)
	// The transmission is lane-invariant (only the payload bytes differ, and
	// those are re-encoded in place), and no Disturbance mutates it, so it is
	// filled in once per slot rather than built once per lane.
	tx := &c.tx // its Payload is c.payload for good
	tx.Sender, tx.Round, tx.Slot, tx.Start, tx.End = tdma.NodeID(s), k, s, start, end
	clean := tdma.Delivery{Valid: true, Payload: c.payload}
	col := uint(s - 1)
	colBits := c.laneRep << col // sender s's column in every live lane
	if c.blindLanes != 0 {
		for i := 1; i <= n; i++ {
			c.blind[i] &^= colBits
		}
	}
	quiet, quietSegs := c.quietLanes(k, s)
	if invariant.Enabled && quiet != 0 {
		c.checkQuiet(k, s, quiet)
	}
	// A quiet lane's truth is the OutcomeCorrect its row starts with (see
	// Step); only a flight recording needs each lane visited.
	if c.events != nil {
		for q := quiet; q != 0; q &= q - 1 {
			if r := bits.TrailingZeros64(q); k < c.horizon[r] {
				c.events[r].Record(trace.Event{
					At: start, Round: k, Kind: trace.KindTransmit, Node: s,
					Detail: tdma.OutcomeCorrect.String(),
				})
			}
		}
	}
	// wireWord, validCol and collCol are lane-packed: the delivered words,
	// and the valid and collided lanes at sender s's column.
	wireWord, validCol := c.staged[s]&quietSegs, colBits&quietSegs
	var collLanes, collCol uint64
	for loud := (uint64(1)<<uint(c.lanes) - 1) &^ quiet; loud != 0; loud &= loud - 1 {
		r := bits.TrailingZeros64(loud)
		bit := uint64(1) << (uint(r*n) + col)
		laneW := core.LaneView(c.staged[s], r, n)
		core.BitSyndrome{Op: laneW, Known: c.laneAll}.EncodeInto(c.payload)
		var d tdma.Delivery
		var blinded uint64
		if c.blindLanes&(1<<uint(r)) == 0 {
			d = c.dist[r].Deliver(&c.tx, 1, clean)
		} else {
			d, blinded = c.deliverSelective(r, clean)
			for m := blinded; m != 0; m &= m - 1 {
				c.blind[bits.TrailingZeros64(m)+1] |= bit
			}
		}
		untouched := false
		if d.Valid && len(d.Payload) == encLen {
			if untouched = payloadEqual(d.Payload, c.payload); untouched {
				// The chain passed the encoding through unaltered, so it
				// decodes back to exactly the word we encoded — skip the
				// wire-format parse on this clean-delivery fast path.
				validCol |= bit
				wireWord |= laneW << uint(r*n)
			} else if row, err := core.BitSyndromeFromWire(d.Payload, n); err == nil {
				validCol |= bit
				wireWord |= row.Op << uint(r*n)
			}
		}
		if invariant.Enabled {
			c.noteFault(k, r, col, d.Valid, untouched, blinded)
		}
		collided := c.dist[r].SenderCollision(&c.tx, false)
		if collided {
			collLanes |= 1 << uint(r)
			collCol |= bit
		}
		if k < c.horizon[r] {
			// Ground-truth classification over the non-sender receivers,
			// as TxReport.Classify does: detectable at some but not all of
			// them is asymmetric, at all of them benign; otherwise they
			// all observe the same delivery, and altered payload bytes
			// are malicious.
			others := c.laneAll &^ (1 << col)
			class := tdma.OutcomeCorrect
			switch blindOthers := blinded & others; {
			case !d.Valid || blindOthers == others:
				class = tdma.OutcomeBenign
			case blindOthers != 0:
				class = tdma.OutcomeAsymmetric
			case !untouched:
				class = tdma.OutcomeMalicious
			}
			c.truth[r][k*(n+1)+s] = class
			if c.events != nil {
				e := trace.Event{
					At: start, Round: k, Kind: trace.KindTransmit, Node: s,
					Detail: class.String(), Invalid: blinded, Collision: collided,
				}
				if !d.Valid {
					e.Invalid = c.laneAll
				} else if !untouched {
					e.Payload = string(d.Payload)
				}
				c.events[r].Record(e)
			}
		}
	}
	c.presentB = c.presentB&^colBits | validCol
	c.rows[s] = core.BitSyndrome{Op: wireWord, Known: c.allB}
	c.healthyRows &^= 1 << col
	if wireWord&c.allB == c.allB {
		c.healthyRows |= 1 << col
	}
	// Sender-side collision feedback: the controller cannot read its own
	// message back, so the sender's stored copy of its own slot is
	// invalidated (other receivers keep their deliveries), and the verdict
	// enters the node's collision history for the Lemma 3 fallback.
	c.ownClear[s] = collCol
	i := s*collRing + k%collRing
	c.collRound[i] = k
	c.collMask[i] = collLanes
	c.collSeen[i] = true
}

// quietLanes returns the live lanes (bit r) whose disturbance chain leaves
// sender s's transmission of round k untouched, and those lanes' segments
// of a lane-packed plane. A lane asks its chain (tdma.Quieter) only once
// the transmission runs past the lane's wake, or when it is stale; a loud
// lane never asks. While the transmission is below every other lane's
// wake, only the stale lanes are visited.
func (c *BatchDiagCluster) quietLanes(k, s int) (quiet, segs uint64) {
	if k < c.wakeMin[s] && c.stale[s] == 0 {
		return uint64(1)<<uint(c.lanes) - 1, c.allB
	}
	return c.askLanes(k, s)
}

// askLanes is quietLanes once some lane must ask.
func (c *BatchDiagCluster) askLanes(k, s int) (quiet, segs uint64) {
	live := uint64(1)<<uint(c.lanes) - 1
	stale := c.stale[s] & live
	c.stale[s] = 0
	wake := c.wake[s*c.max : s*c.max+c.lanes]
	if k < c.wakeMin[s] {
		quiet, segs = live, c.allB
		for m := stale; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			wake[r] = c.ask(s, r)
			if k >= wake[r] {
				quiet &^= 1 << uint(r)
				segs &^= c.laneAll << uint(r*c.n)
			}
			c.wakeMin[s] = min(c.wakeMin[s], wake[r])
		}
		return quiet, segs
	}
	least := math.MaxInt
	for r := range wake {
		if k >= wake[r] || stale>>uint(r)&1 != 0 {
			wake[r] = c.ask(s, r)
		}
		if k < wake[r] {
			quiet |= 1 << uint(r)
			segs |= c.laneAll << uint(r*c.n)
		}
		least = min(least, wake[r])
	}
	c.wakeMin[s] = least
	return quiet, segs
}

// ask returns lane r's wake for slot s from its chain's answer about the
// transmission in c.tx; a loud lane's is 0.
func (c *BatchDiagCluster) ask(s, r int) int {
	if c.loudLanes>>uint(r)&1 != 0 {
		return 0
	}
	if q := c.sole[r]; q != nil {
		return c.wakeRound(q.QuietUntil(&c.tx), s)
	}
	return c.wakeRound(c.dist[r].QuietUntil(&c.tx), s)
}

// wakeRound returns the first round whose slot-s transmission w does not
// cover: every earlier round is below w.Round, and its slot-s window ends
// by w.At. The schedule is periodic, so slot s of round k ends k round
// lengths after it ends in round 0.
func (c *BatchDiagCluster) wakeRound(w tdma.Wake, s int) int {
	if w.At == math.MaxInt64 {
		return w.Round // no time bound: only the round counts
	}
	_, end := c.sched.SlotWindow(0, s)
	if w.At < end {
		return 0
	}
	return min(w.Round, int((w.At-end)/c.sched.RoundLen())+1)
}

// checkQuiet runs the chain of every lane whose slot-s transmission of
// round k quietLanes folded in (ttdiag_invariants builds only): the chain
// must leave it untouched — valid with the encoded bytes, blinded at no
// receiver, no sender collision. It also clears the lanes' fault history
// for the slot, as noteFault does for a clean delivery.
func (c *BatchDiagCluster) checkQuiet(k, s int, quiet uint64) {
	n := c.n
	col := uint(s - 1)
	colBits := expandColumn(quiet, col, n)
	f := &c.invFaults[k%invWindow]
	for i := range f {
		f[i] &^= colBits
	}
	clean := tdma.Delivery{Valid: true, Payload: c.payload}
	for q := quiet; q != 0; q &= q - 1 {
		r := bits.TrailingZeros64(q)
		core.BitSyndrome{Op: core.LaneView(c.staged[s], r, n), Known: c.laneAll}.EncodeInto(c.payload)
		var d tdma.Delivery
		var blinded uint64
		if c.blindLanes&(1<<uint(r)) == 0 {
			d = c.dist[r].Deliver(&c.tx, 1, clean)
		} else {
			d, blinded = c.deliverSelective(r, clean)
		}
		collided := c.dist[r].SenderCollision(&c.tx, false)
		if !d.Valid || !payloadEqual(d.Payload, c.payload) || blinded != 0 || collided {
			invariant.Checkf(false, "sim: round %d slot %d lane %d: the disturbance chain claimed the transmission quiet but touched it (valid %v, blinded %#x, collision %v)",
				k, s, r, d.Valid, blinded, collided)
		}
	}
}

// deliverSelective runs lane r's chain when it holds a tdma.Blinder: each
// blinder contributes its receiver mask, and every other disturbance is
// evaluated once on the delivery the receivers not yet blinded share. Once
// the masks cover all N receivers the rest of the chain sees an invalid
// delivery, as it does on the per-run bus, where no receiver then reaches
// it with a valid one — so a later fault.MaliciousSyndrome draws exactly
// when it would there.
func (c *BatchDiagCluster) deliverSelective(r int, d tdma.Delivery) (tdma.Delivery, uint64) {
	var blinded uint64
	for _, dist := range c.dist[r] {
		if b, ok := dist.(tdma.Blinder); ok {
			if blinded |= b.Blinded(&c.tx) & c.laneAll; blinded == c.laneAll {
				d = tdma.Delivery{}
			}
			continue
		}
		d = dist.Deliver(&c.tx, 1, d)
	}
	return d, blinded
}

// captureFinal snapshots one lane's per-observer penalty counters at its
// horizon, before later rounds of longer lanes keep mutating the shared
// counter planes.
func (c *BatchDiagCluster) captureFinal(r int) {
	for id := 1; id <= c.n; id++ {
		for j := 1; j <= c.n; j++ {
			c.finalPen[r][id*(c.n+1)+j] = c.protos[id].LanePenalty(r, j)
		}
	}
}

// expandColumn spreads per-lane bits (bit r = lane r) to the lane-packed
// plane position of one sender column (bit r·N+col).
func expandColumn(laneBits uint64, col uint, n int) uint64 {
	var out uint64
	for ; laneBits != 0; laneBits &= laneBits - 1 {
		r := bits.TrailingZeros64(laneBits)
		out |= 1 << (uint(r*n) + col)
	}
	return out
}

func payloadEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
