// Lane-packed batched simulation front end: one BatchDiagCluster advances
// G = ⌊64/N⌋ independent Monte-Carlo repetitions ("lanes") of the same
// diagnostic cluster per TDMA round. Each node is a single
// core.BatchProtocol whose syndrome planes hold all lanes side by side, so
// one StepBatch call per node per round replaces G per-run protocol
// executions, and the TDMA delivery work is done once per (lane, slot)
// instead of once per (lane, slot, receiver).
//
// The batched front end is an executable optimisation of the lock-step
// Engine, not a replacement: its observable outputs — collector contents,
// ground-truth rows, penalty counters, telemetry — are pinned byte-exact to
// G per-run Engine executions by TestBatchClusterEquivalence.
package sim

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/core"
	"ttdiag/internal/tdma"
)

// collRing is the depth of the per-node collision-verdict ring, mirroring
// the tdma.Controller history depth.
const collRing = 16

// BatchDiagCluster is a diagnostic cluster whose repetitions run
// lane-packed: every node's protocol advances all lanes with one StepBatch
// per round, and the bus delivery is evaluated once per lane and slot.
//
// The shared-plane layout needs every attached disturbance to be either
// receiver-uniform — it degrades the delivery identically for every
// receiver (fault.Train, fault.MaliciousSyndrome) — or a tdma.Blinder that
// invalidates it at a known receiver subset (fault.SOS,
// fault.ReceiverBlind), which the per-observer blind masks carry. See
// AddLaneDisturbance.
type BatchDiagCluster struct {
	cfg   ClusterConfig // normalized, diagnostic mode; Ls cluster-owned
	sched *tdma.Schedule
	n     int
	max   int // lane capacity, BatchLanes(N)
	lanes int // live lanes of the current gang
	round int

	protos []*core.BatchProtocol // 1-based; entry 0 is nil
	lag    []int                 // 1-based; per-node diagnosis lag
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

	truth    [][]tdma.OutcomeClass // per lane, flat rows of N+1
	cols     []*Collector          // per lane
	finalPen [][]int64             // per lane, flat observer·(N+1)+j

	payload []byte // EncodedLen(N) transmission scratch
	tx      tdma.Transmission

	// OnOutput, when set, observes every diagnostic job's gang output
	// (node id, all lanes), after the lane collectors recorded it. It is
	// the lane-packed counterpart of DiagRunner.OnOutput and survives
	// ResetBatch.
	OnOutput func(id int, out core.BatchRoundOutput)
}

// NewBatchDiagCluster builds a lane-packed diagnostic cluster with capacity
// for BatchLanes(N) repetitions per gang. The configuration space matches
// NewReusableDiagnosticCluster except that Mode is forced to diagnostic and
// trace sinks are not supported (tracing campaigns use the per-run engine).
// The configuration stays caller-owned: its slot layout is copied.
//
//ttdiag:noretain params
func NewBatchDiagCluster(cfg ClusterConfig) (*BatchDiagCluster, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	norm.Mode = core.ModeDiagnostic
	if norm.Sink != nil {
		return nil, fmt.Errorf("sim: batched cluster does not support trace sinks")
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
	// The three per-observer mask families share one backing array.
	w := norm.N + 1
	masks := make([]uint64, 3*w)
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
		blind:     masks[2*w:],
		staged:    make([]uint64, norm.N+1),
		collRound: make([]int, (norm.N+1)*collRing),
		collMask:  make([]uint64, (norm.N+1)*collRing),
		collSeen:  make([]bool, (norm.N+1)*collRing),
		dist:      make([]tdma.Disturbances, maxLanes),
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
	for pos := 0; pos <= norm.N; pos++ {
		for id := 1; id <= norm.N; id++ {
			if norm.Ls[id-1] == pos {
				c.jobs = append(c.jobs, id)
			}
		}
	}
	for r := 0; r < maxLanes; r++ {
		c.cols[r] = NewCollector()
		c.finalPen[r] = make([]int64, (norm.N+1)*(norm.N+1))
	}
	c.ResetBatch(maxLanes)
	return c, nil
}

// Config returns the cluster's normalized configuration.
func (c *BatchDiagCluster) Config() ClusterConfig { return c.cfg }

// Schedule returns the cluster's TDMA schedule.
func (c *BatchDiagCluster) Schedule() *tdma.Schedule { return c.sched }

// MaxLanes returns the gang capacity ⌊64/N⌋.
func (c *BatchDiagCluster) MaxLanes() int { return c.max }

// Lanes returns the live lane count of the current gang.
func (c *BatchDiagCluster) Lanes() int { return c.lanes }

// Proto returns node id's lane-packed protocol, e.g. to attach per-lane
// telemetry via SetLaneMetrics before Run (attachments survive ResetBatch).
func (c *BatchDiagCluster) Proto(id int) *core.BatchProtocol { return c.protos[id] }

// ResetBatch rewinds the cluster for the next gang of `lanes` repetitions
// (a ragged final gang shrinks the lane count): protocols restart their
// warm-up, disturbances and horizons are dropped, collectors and ground
// truth are emptied and the bootstrap all-healthy outboxes are re-staged.
func (c *BatchDiagCluster) ResetBatch(lanes int) error {
	if lanes < 1 || lanes > c.max {
		return fmt.Errorf("sim: gang of %d lanes outside 1..%d", lanes, c.max)
	}
	c.lanes = lanes
	c.round = 0
	c.laneRep = 0
	for r := 0; r < lanes; r++ {
		c.laneRep |= 1 << uint(r*c.n)
	}
	c.allB = c.laneRep * c.laneAll
	for id := 1; id <= c.n; id++ {
		c.protos[id].Reset(lanes)
		c.ign[id] = 0
		c.ownClear[id] = 0
		c.blind[id] = 0
		// The bootstrap outbox is the all-healthy syndrome in every lane,
		// mirroring bootstrapOutboxes on the per-run path.
		c.staged[id] = c.allB
		c.rows[id] = core.BitSyndrome{Op: 0, Known: c.allB}
	}
	c.presentB = 0
	c.blindLanes = 0
	for i := range c.collSeen {
		c.collSeen[i] = false
	}
	for r := 0; r < c.max; r++ {
		c.dist[r] = c.dist[r][:0]
		c.horizon[r] = 0
		c.truth[r] = c.truth[r][:0]
		c.cols[r].Reset()
	}
	return nil
}

// AddLaneDisturbance appends a disturbance to one lane's bus filter chain.
//
// The batched bus evaluates each disturbance once per (lane, slot), so it
// must be either receiver-uniform — Deliver does not depend on the rcv
// argument (fault.Train and any burst train, fault.MaliciousSyndrome) — or
// a tdma.Blinder (fault.SOS, fault.ReceiverBlind), whose receiver mask is
// used instead of Deliver. A composite chain (tdma.Disturbances,
// fault.RedundantChannels) counts as one opaque disturbance and must be
// receiver-uniform as a whole.
func (c *BatchDiagCluster) AddLaneDisturbance(lane int, d tdma.Disturbance) {
	c.dist[lane] = append(c.dist[lane], d)
	if _, ok := d.(tdma.Blinder); ok {
		c.blindLanes |= 1 << uint(lane)
	}
}

// SetLaneHorizon pins one lane's repetition length in rounds: the lane's
// ground truth, collector records and telemetry cover rounds 0..rounds-1,
// and its final penalty counters are captured when that round completes.
// Run executes to the maximum horizon over the gang; lanes keep stepping
// past their own horizon (the segments are independent) but record nothing.
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
func (c *BatchDiagCluster) Run() error {
	maxH := 0
	for r := 0; r < c.lanes; r++ {
		if c.horizon[r] > maxH {
			maxH = c.horizon[r]
		}
	}
	w := c.n + 1
	for c.round < maxH {
		k := c.round
		for r := 0; r < c.lanes; r++ {
			if c.horizon[r] == k {
				// The lane's repetition ended last round: detach its
				// telemetry so rounds past the horizon emit nothing,
				// exactly like a per-run repetition that has stopped.
				for id := 1; id <= c.n; id++ {
					c.protos[id].SetLaneMetrics(r, nil)
				}
			}
			if k < c.horizon[r] {
				for i := 0; i < w; i++ {
					c.truth[r] = append(c.truth[r], 0)
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
	}
	return nil
}

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
	present := c.presentB &^ (c.ign[id] | c.ownClear[id] | c.blind[id])
	var collF uint64
	if d := k - c.lag[id]; d >= 0 {
		i := id*collRing + d%collRing
		if c.collSeen[i] && c.collRound[i] == d {
			collF = c.collMask[i]
		}
	}
	out, err := c.protos[id].StepBatch(core.BatchRoundInput{
		Round:           k,
		Rows:            c.rows,
		Present:         present,
		Validity:        core.BitSyndrome{Op: present, Known: c.allB},
		CollisionFaulty: collF,
	})
	if err != nil {
		return fmt.Errorf("sim: node %d round %d: %w", id, k, err)
	}
	c.staged[id] = out.SendOp & out.SendKnown
	if !c.observe {
		// No reintegration: an isolation permanently drops the sender
		// from this observer's view, which is what the per-run
		// SetIgnored(j, true) does to the controller.
		c.ign[id] |= c.allB &^ out.ActiveMask
	}
	for r := 0; r < c.lanes; r++ {
		if out.Round >= c.horizon[r] {
			continue
		}
		col := c.cols[r]
		if out.Warm {
			col.setHV(out.DiagnosedRound, id, c.n, out.LaneConsHV(r, c.n))
		}
		col.addDecisions(id, out.Round, out.LaneIsolated(r, c.n), out.LaneReintegrated(r, c.n))
	}
	if c.OnOutput != nil {
		c.OnOutput(id, out)
	}
	return nil
}

// transmitSlot broadcasts node s's staged outbox in every lane: encode the
// lane's wire word, run the lane's disturbance chain once (uniform
// disturbances at representative receiver 1, blinders as receiver masks),
// fold the delivery into the shared planes, the blind masks and the
// sender's collision ring, and record the lane's ground truth.
func (c *BatchDiagCluster) transmitSlot(k, s int) {
	start, end := c.sched.SlotWindow(k, s)
	n := c.n
	encLen := len(c.payload)
	// The transmission is lane-invariant (only the payload bytes differ, and
	// those are re-encoded in place), and no Disturbance mutates it, so it is
	// built once per slot rather than once per lane.
	c.tx = tdma.Transmission{
		Sender: tdma.NodeID(s), Round: k, Slot: s,
		Start: start, End: end, Payload: c.payload,
	}
	clean := tdma.Delivery{Valid: true, Payload: c.payload}
	col := uint(s - 1)
	if c.blindLanes != 0 {
		colBits := c.laneRep << col
		for i := 1; i <= n; i++ {
			c.blind[i] &^= colBits
		}
	}
	var wireWord, validLanes, collLanes uint64
	for r := 0; r < c.lanes; r++ {
		laneW := core.LaneView(c.staged[s], r, n)
		core.BitSyndrome{Op: laneW, Known: c.laneAll}.EncodeInto(c.payload)
		var d tdma.Delivery
		var blinded uint64
		if c.blindLanes&(1<<uint(r)) == 0 {
			d = c.dist[r].Deliver(&c.tx, 1, clean)
		} else {
			d, blinded = c.deliverSelective(r, clean)
			for m := blinded; m != 0; m &= m - 1 {
				c.blind[bits.TrailingZeros64(m)+1] |= 1 << (uint(r*n) + col)
			}
		}
		untouched := false
		if d.Valid && len(d.Payload) == encLen {
			if untouched = payloadEqual(d.Payload, c.payload); untouched {
				// The chain passed the encoding through unaltered, so it
				// decodes back to exactly the word we encoded — skip the
				// wire-format parse on this clean-delivery fast path.
				validLanes |= 1 << uint(r)
				wireWord |= laneW << uint(r*n)
			} else if row, err := core.BitSyndromeFromWire(d.Payload, n); err == nil {
				validLanes |= 1 << uint(r)
				wireWord |= row.Op << uint(r*n)
			}
		}
		if c.dist[r].SenderCollision(&c.tx, false) {
			collLanes |= 1 << uint(r)
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
		}
	}
	c.presentB = (c.presentB &^ (c.laneRep << col)) | expandColumn(validLanes, col, n)
	c.rows[s] = core.BitSyndrome{Op: wireWord, Known: c.allB}
	// Sender-side collision feedback: the controller cannot read its own
	// message back, so the sender's stored copy of its own slot is
	// invalidated (other receivers keep their deliveries), and the verdict
	// enters the node's collision history for the Lemma 3 fallback.
	c.ownClear[s] = expandColumn(collLanes, col, n)
	i := s*collRing + k%collRing
	c.collRound[i] = k
	c.collMask[i] = collLanes
	c.collSeen[i] = true
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
