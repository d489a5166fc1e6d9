package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// This file is the cross-run lane-packing layer: where the packed Protocol
// bit-slices the columns of ONE cluster into a 64-bit plane word, the batch
// types below bit-slice G = ⌊64/N⌋ independent repetitions of the SAME
// cluster shape into one word. Lane r occupies bits [r·N, (r+1)·N) of every
// plane, so one carry-save vote pass, one penalty/reward sweep and one
// alignment merge advance G Monte-Carlo runs at once. Per-run control flow
// (self-column, read/send alignment, isolation state) is hoisted from
// branches into lane-replicated masks; a run's fault outcome is a mask AND,
// never an `if`.
//
// The batch path covers the diagnostic mode only (membership accusations are
// per-run list-shaped state and stay on Protocol). Lane-exact equivalence
// with the per-run packed path — outputs, snapshot bytes, metric values — is
// pinned by batch_equivalence_test.go.

// BatchLanes returns how many independent runs of an n-node system fit one
// plane word: G = ⌊MaxPackedN/n⌋ (16 lanes at N=4, 8 at N=8, …), 0 outside
// the packed bound.
func BatchLanes(n int) int {
	if n < 1 || n > MaxPackedN {
		return 0
	}
	return MaxPackedN / n
}

// laneExtract returns lane `lane`'s n-bit segment of a lane-packed word,
// right-aligned (bit j-1 = node j).
func laneExtract(w uint64, lane, n int) uint64 {
	return (w >> uint(lane*n)) & PlaneMask(n)
}

// LaneView extracts one lane of a lane-packed plane word as a per-run mask
// (bit j-1 = node j), the inverse of placing a run at lane `lane`.
func LaneView(w uint64, lane, n int) uint64 { return laneExtract(w, lane, n) }

// BatchRoundInput carries one round's controller observations for every lane
// of a gang, in lane-packed plane form. It is the G-run generalisation of
// PackedRoundInput: bit r·N + (j-1) of a plane is lane r's bit for node j.
type BatchRoundInput struct {
	// Round is the absolute round number, shared by all lanes; it must
	// advance by exactly one per StepBatch.
	Round int
	// Rows[j] is the lane-packed decoded diagnostic message of interface
	// variable j (1-based). Lane r's segment is meaningful iff the lane's
	// Present bit for j is set; absent segments may hold garbage.
	Rows []BitSyndrome
	// Present marks the interface variables holding a decodable valid
	// payload, lane-packed (bit r·N + j-1 = lane r, variable j).
	Present uint64
	// Validity packs the validity bits of the interface variables, lane-
	// packed like Present.
	Validity BitSyndrome
	// CollisionFaulty marks the lanes (bit r = lane r) whose local collision
	// detector reports Faulty for the diagnosed round — the Lemma 3 fallback
	// input. Lanes with a clear bit resolve ⊥ to Healthy, exactly like a nil
	// CollisionFn on the per-run path.
	CollisionFaulty uint64
}

// BatchRoundOutput is the result of one gang execution. Every field is a
// value (lane-packed plane words), so retaining an output costs nothing and
// StepBatch allocates nothing in steady state.
type BatchRoundOutput struct {
	// Round echoes the executed round; DiagnosedRound is the round the
	// consistent health vectors refer to (-1 while warming up).
	Round          int
	DiagnosedRound int
	// Warm reports whether the gang produced health vectors this round.
	Warm bool
	// ConsOp/ConsKnown are the lane-packed consistent health vectors (every
	// lane bit Known once warm, after the Lemma 3 fallback).
	ConsOp, ConsKnown uint64
	// SendOp/SendKnown are the lane-packed outgoing syndromes (the
	// dissemination payloads; a lane's wire bytes are its Op∧Known segment).
	SendOp, SendKnown uint64
	// ActiveMask is the lane-packed activity vector after the update.
	ActiveMask uint64
	// IsolatedMask/ReintegratedMask mark the nodes that crossed an isolation
	// threshold this round, lane-packed.
	IsolatedMask, ReintegratedMask uint64
}

// LaneConsHV returns lane `lane`'s consistent health vector.
func (o *BatchRoundOutput) LaneConsHV(lane, n int) BitSyndrome {
	return BitSyndrome{Op: laneExtract(o.ConsOp, lane, n), Known: laneExtract(o.ConsKnown, lane, n)}
}

// LaneSend returns lane `lane`'s outgoing syndrome.
func (o *BatchRoundOutput) LaneSend(lane, n int) BitSyndrome {
	return BitSyndrome{Op: laneExtract(o.SendOp, lane, n), Known: laneExtract(o.SendKnown, lane, n)}
}

// LaneActiveMask returns lane `lane`'s activity vector (bit j-1 = node j).
func (o *BatchRoundOutput) LaneActiveMask(lane, n int) uint64 {
	return laneExtract(o.ActiveMask, lane, n)
}

// LaneIsolated returns lane `lane`'s isolations this round (bit j-1).
func (o *BatchRoundOutput) LaneIsolated(lane, n int) uint64 {
	return laneExtract(o.IsolatedMask, lane, n)
}

// LaneReintegrated returns lane `lane`'s reintegrations this round.
func (o *BatchRoundOutput) LaneReintegrated(lane, n int) uint64 {
	return laneExtract(o.ReintegratedMask, lane, n)
}

// batchAlignBuf is alignBuf for a gang: one lane-packed presence mask and
// lane-packed row/validity planes shared by all lanes.
type batchAlignBuf struct {
	rows []BitSyndrome
	set  uint64
	ls   BitSyndrome
	al   BitSyndrome
}

// BatchProtocol runs one node's diagnostic job for G independent repetitions
// at once (same Config — shape, id, l_i — in every lane; what differs per
// lane is the observed inputs). Create one per node with NewBatchProtocol,
// call StepBatch exactly once per TDMA round, and Reset(lanes) between
// repetition gangs (ragged final gangs shrink the lane count).
type BatchProtocol struct {
	cfg   Config
	n     int
	lanes int
	steps int

	// Lane-replicated masks, rebuilt by Reset: laneRep has bit r·N set for
	// every live lane (the multiplicative lane replicator), allB covers every
	// live lane's node bits, selfB is the node's own column in every lane,
	// lowB/hiB split read alignment at l_i.
	laneRep uint64
	allB    uint64
	selfB   uint64
	lowB    uint64
	laneAll uint64 // PlaneMask(n), one lane's segment

	pbufs     [2]batchAlignBuf
	lastSentB BitSyndrome
	prevSentB BitSyndrome

	// op/know are the gang diagnostic-matrix scratch (1-based rows). Unlike
	// the per-run path the matrix is not part of the output contract, so the
	// planes are protocol-owned and reused every round — StepBatch allocates
	// nothing in steady state.
	op   []uint64
	know []uint64

	pr *batchPR

	// metrics holds the optional per-lane telemetry attachments
	// (SetLaneMetrics); anyMetrics is their non-nil disjunction. groups folds
	// the attachments into sets of lanes attached to the same StepMetrics,
	// and seriesLanes marks (bit r) the lanes that also record penalty
	// trajectories; both are rebuilt lazily once an attachment changed
	// (regroup). votes is the vote classification StepBatch hands
	// emitMetrics, filled only while metrics are attached.
	metrics     []*StepMetrics
	anyMetrics  bool
	regroup     bool
	groups      []laneGroup
	seriesLanes uint64
	votes       laneVotes

	// snapAccuse/snapAge are the diagnostic-mode accusation state every lane
	// shares (no accusations ever), kept materialised for SnapshotLane.
	snapAccuse []int
	snapAge    []int
}

// NewBatchProtocol builds the gang diagnostic job: `lanes` independent runs
// of the node described by cfg. It requires the diagnostic mode (membership
// accusation state is per-run shaped) and N·lanes ≤ MaxPackedN.
func NewBatchProtocol(cfg Config, lanes int) (*BatchProtocol, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode != ModeDiagnostic {
		return nil, fmt.Errorf("core: node %d: the batch path covers the diagnostic mode only", cfg.ID)
	}
	if max := BatchLanes(cfg.N); lanes < 1 || lanes > max {
		return nil, fmt.Errorf("core: node %d: %d lanes of an N=%d system do not fit one word (1..%d)", cfg.ID, lanes, cfg.N, max)
	}
	p := &BatchProtocol{
		cfg:        cfg,
		n:          cfg.N,
		op:         make([]uint64, cfg.N+1),
		know:       make([]uint64, cfg.N+1),
		metrics:    make([]*StepMetrics, BatchLanes(cfg.N)),
		groups:     make([]laneGroup, 0, BatchLanes(cfg.N)),
		snapAccuse: make([]int, cfg.N+1),
		snapAge:    make([]int, cfg.N+1),
	}
	for j := range p.snapAge {
		p.snapAge[j] = accusationSkew + 1
	}
	p.pbufs[0].rows = make([]BitSyndrome, cfg.N+1)
	p.pbufs[1].rows = make([]BitSyndrome, cfg.N+1)
	var err error
	if p.pr, err = newBatchPR(cfg.N, BatchLanes(cfg.N), cfg.PR); err != nil {
		return nil, err
	}
	p.Reset(lanes)
	return p, nil
}

// Config returns the shared per-lane configuration.
func (p *BatchProtocol) Config() Config { return p.cfg }

// Lanes returns the current gang width.
func (p *BatchProtocol) Lanes() int { return p.lanes }

// Reset rewinds every lane to the freshly constructed state and sets the
// gang width for the next repetition group (ragged final gangs pass a
// smaller width). It keeps all allocated buffers.
func (p *BatchProtocol) Reset(lanes int) {
	if max := BatchLanes(p.n); lanes < 1 || lanes > max {
		panic(fmt.Sprintf("core: node %d: Reset to %d lanes, want 1..%d", p.cfg.ID, lanes, max))
	}
	n := p.n
	p.lanes = lanes
	p.laneAll = PlaneMask(n)
	p.laneRep = 0
	for r := 0; r < lanes; r++ {
		p.laneRep |= 1 << uint(r*n)
	}
	// Lane segments are disjoint, so replicating an n-bit mask into every
	// live lane is a single multiply by the lane replicator (no carries).
	p.allB = p.laneRep * p.laneAll
	p.selfB = p.laneRep << uint(p.cfg.ID-1)
	l := p.cfg.L
	if p.cfg.Dynamic {
		l = 0
	}
	p.lowB = p.laneRep * PlaneMask(l)

	hw := BitSyndrome{Op: p.allB, Known: p.allB}
	for b := range p.pbufs {
		buf := &p.pbufs[b]
		for j := 1; j <= n; j++ {
			buf.rows[j] = hw
		}
		buf.set = p.allB
		buf.ls, buf.al = hw, hw
	}
	p.lastSentB, p.prevSentB = hw, hw
	p.steps = 0
	p.pr.reset(lanes)
}

// ownRowB is ownRow for the gang: the lane-packed syndromes this node
// physically transmitted in the previous round.
func (p *BatchProtocol) ownRowB() BitSyndrome {
	if p.cfg.SendCurrRound {
		return p.lastSentB
	}
	return p.prevSentB
}

// StepBatch executes the diagnostic job of every lane for one round. It is
// the gang form of StepPacked: each phase of Alg. 1 runs once on lane-packed
// words and advances all lanes together. Rows stays caller-owned (entries
// are copied by value) and may be reused immediately. The steady state
// allocates nothing — the output is all values and the matrix scratch is
// protocol-owned.
//
//ttdiag:noretain params
func (p *BatchProtocol) StepBatch(in BatchRoundInput) (BatchRoundOutput, error) {
	n := p.n
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return BatchRoundOutput{}, fmt.Errorf("core: node %d: StepBatch round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if len(in.Rows) != n+1 {
		return BatchRoundOutput{}, fmt.Errorf("core: node %d: Rows has %d entries, want %d", p.cfg.ID, len(in.Rows), n+1)
	}
	all := p.allB
	present := in.Present & all
	validity := in.Validity.normalized(all)

	// rd was written in the previous round; wr becomes next round's rd.
	rd := &p.pbufs[p.steps&1]
	wr := &p.pbufs[(p.steps+1)&1]

	// Phases 1 and 3 — read alignment (Alg. 1 lines 1-6): entries 1..l_i
	// come from the previous read, the rest from the current one. All lanes
	// share l_i (same Config), so the split is the same two mask merges as
	// the per-run path, just over lane-replicated masks.
	low := p.lowB
	hi := all &^ low
	alSet := (rd.set & low) | (present & hi)
	alLS := BitSyndrome{
		Op:    (rd.ls.Op & low) | (validity.Op & hi),
		Known: (rd.ls.Known & low) | (validity.Known & hi),
	}
	wr.al = alLS

	out := BatchRoundOutput{Round: in.Round, DiagnosedRound: -1}

	// Phase 4 — analysis (Alg. 1 lines 11-14), diagnostic mode only.
	warm := p.steps >= p.cfg.Lag()
	var diagRound int
	if warm {
		self := p.selfB
		rowSet := (alSet &^ self) | self
		l := p.cfg.L
		if p.cfg.Dynamic {
			l = 0
		}
		// Install the gang matrix: row j's lane segment is live iff lane r's
		// rowSet bit for j is set; compressing those bits onto the lane
		// replicator and multiplying by the segment mask expands per-lane row
		// presence into a plane mask (fault outcome as mask AND, not branch).
		for j := 1; j <= n; j++ {
			var row BitSyndrome
			switch {
			case j == p.cfg.ID:
				// Each lane's own row is its locally buffered copy of the
				// syndrome it physically transmitted in round k-1 (Lemma 3).
				row = p.ownRowB()
			case j <= l:
				row = rd.rows[j]
			default:
				row = in.Rows[j].normalized(all)
			}
			seg := ((rowSet >> uint(j-1)) & p.laneRep) * p.laneAll
			p.op[j] = row.Op & row.Known & seg
			p.know[j] = row.Known & seg
		}

		var votes *laneVotes
		if p.anyMetrics {
			votes = &p.votes
		}
		consOp, consKnown := voteAllLanes(p.op, p.know, n, p.laneRep, votes)

		diagRound = in.Round - p.cfg.Lag()
		// ⊥ fallback (Alg. 1 line 14): columns outside consKnown resolve to
		// the lane's local collision verdict. The verdict is per lane and
		// round, not per column, so the per-run ascending-column query loop
		// collapses to one lane-mask expansion (cold: ⊥ needs ≥ N-1 silent
		// senders in that lane).
		if unk := all &^ consKnown; unk != 0 {
			lanesMask := uint64(1)<<uint(p.lanes) - 1
			var faultyLanes uint64
			for rem := in.CollisionFaulty & lanesMask; rem != 0; rem &= rem - 1 {
				r := bits.TrailingZeros64(rem)
				faultyLanes |= p.laneAll << uint(r*n)
			}
			consOp |= unk &^ faultyLanes
			consKnown = all
		}
		out.ConsOp, out.ConsKnown = consOp, consKnown
		out.DiagnosedRound = diagRound
		out.Warm = true
	}

	// Phase 2 — dissemination (send alignment, Alg. 1 lines 7-10).
	var outBits BitSyndrome
	switch {
	case p.cfg.AllSendCurrRound:
		outBits = alLS
	case p.cfg.SendCurrRound:
		outBits = rd.al
	default:
		outBits = alLS
	}
	out.SendOp, out.SendKnown = outBits.Op, outBits.Known

	// Phase 5 — update counters (Alg. 1 line 15, Alg. 2): one masked sweep
	// over every lane's faulty columns plus the lanes' attention sets.
	if warm {
		out.IsolatedMask, out.ReintegratedMask = p.pr.updateMasked(out.ConsKnown &^ out.ConsOp & all)
	}
	out.ActiveMask = p.pr.activeMask

	// Buffering for the next round (Alg. 1 lines 16-17). Absent lane
	// segments of a row may retain garbage — every read masks them out via
	// the presence bits, exactly like the per-run set mask.
	wr.set = present
	for j := 1; j <= n; j++ {
		wr.rows[j] = in.Rows[j].normalized(all)
	}
	wr.ls = validity
	p.prevSentB = p.lastSentB
	p.lastSentB = outBits
	if p.anyMetrics {
		p.emitMetrics(&out, warm, diagRound)
	}
	p.steps++
	return out, nil
}

// laneVotes classifies one warm round's gang vote column by column, as
// lane-packed masks: any marks the columns with at least one opinion (⊥ is
// its complement), faulty the strict faulty majorities, tied the exact
// non-zero ties (which H-maj resolves to Healthy).
type laneVotes struct {
	any, faulty, tied uint64
}

// voteAllLanes is the gang vote kernel: one carry-save pass over every
// lane's every column, identical to Matrix.voteAllPlanes except the
// self-column mask is replicated into every lane by laneRep. op/know are the
// 1-based gang matrix planes, already restricted to the live lanes (absent
// rows carry zero know segments). Per-column counts stay ≤ N-1 ≤ 63, so the
// six counter planes cover every lane at once. A non-nil votes additionally
// receives the column classification the telemetry needs, read off the same
// counter planes. Lane-exact equivalence with the per-run kernel is pinned
// by FuzzVoteAllBatch.
func voteAllLanes(op, know []uint64, n int, laneRep uint64, votes *laneVotes) (consOp, consKnown uint64) {
	var healthy, faulty [countPlanes]uint64
	var any uint64
	for i := 1; i <= n; i++ {
		valid := know[i] &^ (laneRep << uint(i-1))
		if valid == 0 {
			continue
		}
		any |= valid
		addPlane(&healthy, op[i]&valid)
		addPlane(&faulty, valid&^op[i])
	}
	var borrow uint64
	for k := 0; k < countPlanes; k++ {
		borrow = (^healthy[k] & (faulty[k] | borrow)) | (faulty[k] & borrow)
	}
	if votes != nil {
		// The borrow is the strict faulty majority (columns without any
		// opinion never borrow); a tie is bitwise equality of the two
		// counter stacks in a column that has opinions.
		var differ uint64
		for k := 0; k < countPlanes; k++ {
			differ |= healthy[k] ^ faulty[k]
		}
		votes.any, votes.faulty, votes.tied = any, borrow, any&^differ
	}
	return any &^ borrow, any
}

// laneGroup is a set of lanes attached to the same StepMetrics, so
// emitMetrics folds the whole set with one popcount per counter.
type laneGroup struct {
	m   *StepMetrics
	rep uint64 // bit r·N for every member lane r (a lane replicator)
}

// SetLaneMetrics attaches (or, with nil, detaches) per-lane telemetry; lane
// r's instruments receive exactly what the per-run protocol of that lane
// would emit. Lanes may share one StepMetrics, which is the cheap way to
// instrument a gang. The attachment survives Reset.
func (p *BatchProtocol) SetLaneMetrics(lane int, m *StepMetrics) {
	p.metrics[lane] = m
	p.regroup = true
	p.anyMetrics = false
	for _, lm := range p.metrics {
		if lm != nil {
			p.anyMetrics = true
			return
		}
	}
}

// regroupMetrics rebuilds the lane groups and the trajectory lanes from the
// per-lane attachments. It runs once per attachment change, not per round.
func (p *BatchProtocol) regroupMetrics() {
	p.groups = p.groups[:0]
	p.seriesLanes = 0
	for lane, m := range p.metrics {
		if m == nil {
			continue
		}
		if m.PenaltySeries != nil {
			p.seriesLanes |= 1 << uint(lane)
		}
		bit := uint64(1) << uint(lane*p.n)
		g := 0
		for g < len(p.groups) && p.groups[g].m != m {
			g++
		}
		if g == len(p.groups) {
			p.groups = append(p.groups, laneGroup{m: m})
		}
		p.groups[g].rep |= bit
	}
	p.regroup = false
}

// emitMetrics records one gang execution into the attached lanes'
// instruments, with the totals each lane's per-run protocol would emit
// (emitStepMetrics). It works on lane-packed masks: the vote outcomes come
// from the kernel's classification, disagreements are one masked popcount
// per matrix row, and every quantity folds into a group's counters with one
// popcount, so the cost does not grow with the lane count.
func (p *BatchProtocol) emitMetrics(out *BatchRoundOutput, warm bool, diagRound int) {
	if p.regroup {
		p.regroupMetrics()
	}
	n := p.n
	// Only nodes under attention or isolated can hold a non-zero penalty:
	// a Faulty verdict on an active node either isolates it or puts it under
	// attention, and attention is dropped only when the penalty is reset.
	var penalized uint64
	if warm {
		penalized = p.pr.attention | p.allB&^p.pr.activeMask
	}
	for g := range p.groups {
		rep := p.groups[g].rep & p.laneRep
		if rep == 0 {
			continue
		}
		seg := rep * p.laneAll
		m := p.groups[g].m
		m.Steps.Add(int64(bits.OnesCount64(rep)))
		m.Isolations.Add(int64(bits.OnesCount64(out.IsolatedMask & seg)))
		m.Reintegrations.Add(int64(bits.OnesCount64(out.ReintegratedMask & seg)))
		if !warm {
			continue
		}
		v := &p.votes
		m.VotesBottom.Add(int64(bits.OnesCount64(seg &^ v.any)))
		m.VotesFaulty.Add(int64(bits.OnesCount64(seg & v.faulty)))
		m.VotesHealthy.Add(int64(bits.OnesCount64(seg & v.any &^ v.faulty)))
		m.VotesTied.Add(int64(bits.OnesCount64(seg & v.tied)))
		var disagreements int
		for i := 1; i <= n; i++ {
			conflict := p.know[i] & out.ConsKnown & (p.op[i] ^ out.ConsOp) &^ (p.laneRep << uint(i-1))
			disagreements += bits.OnesCount64(conflict & seg)
		}
		m.Disagreements.Add(int64(disagreements))
		m.PenaltyMax.Observe(p.pr.maxPenalty(penalized & seg))
	}
	if !warm {
		return
	}
	round := int64(diagRound)
	for rem := p.seriesLanes & (uint64(1)<<uint(p.lanes) - 1); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros64(rem)
		m := p.metrics[lane]
		base := lane * (n + 1)
		for j := 1; j <= n && j < len(m.PenaltySeries); j++ {
			m.PenaltySeries[j].Append(round, p.pr.penalties[base+j])
		}
	}
}

// LanePenalty returns lane `lane`'s penalty counter of node j.
func (p *BatchProtocol) LanePenalty(lane, j int) int64 {
	if j < 1 || j > p.n {
		return 0
	}
	return p.pr.penalties[lane*(p.n+1)+j]
}

// LaneActive reports whether node j is active in lane `lane`.
func (p *BatchProtocol) LaneActive(lane, j int) bool {
	if j < 1 || j > p.n {
		return false
	}
	return p.pr.active[lane*(p.n+1)+j]
}

// SnapshotLane serialises lane `lane`'s full protocol state to JSON,
// byte-identical to Protocol.Snapshot of the per-run instance that ran the
// same inputs (pinned by the differential tests).
func (p *BatchProtocol) SnapshotLane(lane int) ([]byte, error) {
	if lane < 0 || lane >= p.lanes {
		return nil, fmt.Errorf("core: node %d: snapshot of lane %d, want 0..%d", p.cfg.ID, lane, p.lanes-1)
	}
	n := p.n
	base := lane * (n + 1)
	snap := protocolSnapshot{
		Config:     p.cfg,
		Steps:      p.steps,
		LastSent:   p.laneSyndrome(p.lastSentB, lane),
		PrevSent:   p.laneSyndrome(p.prevSentB, lane),
		Accuse:     p.snapAccuse,
		AccusedAge: p.snapAge,
		PR: prSnapshot{
			Penalties: p.pr.penalties[base : base+n+1 : base+n+1],
			Rewards:   p.pr.rewards[base : base+n+1 : base+n+1],
			Active:    p.pr.active[base : base+n+1 : base+n+1],
			Observe:   p.pr.observe[base : base+n+1 : base+n+1],
		},
	}
	rd := &p.pbufs[p.steps&1]
	snap.PrevLS = p.laneSyndrome(rd.ls, lane)
	snap.PrevAlLS = p.laneSyndrome(rd.al, lane)
	snap.PrevDM = make(map[int]Syndrome)
	for j := 1; j <= n; j++ {
		if rd.set&(1<<uint(lane*n+j-1)) != 0 {
			snap.PrevDM[j] = p.laneSyndrome(rd.rows[j], lane)
		}
	}
	return json.Marshal(snap)
}

// laneSyndrome materialises lane `lane`'s segment of a lane-packed syndrome.
func (p *BatchProtocol) laneSyndrome(b BitSyndrome, lane int) Syndrome {
	n := p.n
	return BitSyndrome{
		Op:    laneExtract(b.Op, lane, n),
		Known: laneExtract(b.Known, lane, n),
	}.Unpack(n)
}

// batchPR is the gang form of PenaltyReward: the counters of every lane live
// in flat slices indexed lane·(N+1)+j — each lane's block has the exact
// layout of the per-run counter slices, so SnapshotLane can expose them
// without copying — and the activity/attention masks are lane-packed.
type batchPR struct {
	cfg       PRConfig
	n         int
	lanes     int
	penalties []int64
	rewards   []int64
	observe   []int64
	active    []bool
	// activeMask mirrors active[] lane-packed (bit r·N + j-1); attention
	// marks the nodes for which a Healthy verdict is not a no-op, exactly as
	// on the per-run path but across all lanes at once.
	activeMask uint64
	attention  uint64
}

func newBatchPR(n, maxLanes int, cfg PRConfig) (*batchPR, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	w := maxLanes * (n + 1)
	return &batchPR{
		cfg:       cfg,
		n:         n,
		penalties: make([]int64, w),
		rewards:   make([]int64, w),
		observe:   make([]int64, w),
		active:    make([]bool, w),
	}, nil
}

func (b *batchPR) reset(lanes int) {
	b.lanes = lanes
	b.activeMask = 0
	b.attention = 0
	for r := 0; r < lanes; r++ {
		base := r * (b.n + 1)
		b.active[base] = false
		for j := 1; j <= b.n; j++ {
			b.penalties[base+j] = 0
			b.rewards[base+j] = 0
			b.observe[base+j] = 0
			b.active[base+j] = true
		}
		b.activeMask |= PlaneMask(b.n) << uint(r*b.n)
	}
}

// maxPenalty returns the largest penalty counter at the lane-packed
// positions in mask, 0 for an empty mask.
func (b *batchPR) maxPenalty(mask uint64) int64 {
	var max int64
	for rem := mask; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		if v := b.penalties[(pos/b.n)*(b.n+1)+pos%b.n+1]; v > max {
			max = v
		}
	}
	return max
}

// updateMasked applies one round's lane-packed faulty columns (Alg. 2 across
// the gang): only bits in faultyMask ∪ attention are visited — ascending bit
// order is lane-major, and within each lane matches the per-run ascending
// node order, so every lane's counter trajectory is identical to its per-run
// instance.
func (b *batchPR) updateMasked(faultyMask uint64) (isolated, reintegrated uint64) {
	for rem := faultyMask | b.attention; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		health := Healthy
		if faultyMask&(rem&-rem) != 0 {
			health = Faulty
		}
		iso, reint := b.updateNode(pos, health)
		if iso {
			isolated |= 1 << uint(pos)
		}
		if reint {
			reintegrated |= 1 << uint(pos)
		}
	}
	return isolated, reintegrated
}

// updateNode applies one verdict to the node at lane-packed bit position pos,
// mirroring PenaltyReward.updateNode + syncMask.
func (b *batchPR) updateNode(pos int, health Opinion) (isolated, reintegrated bool) {
	j := pos%b.n + 1
	i := (pos/b.n)*(b.n+1) + j
	bit := uint64(1) << uint(pos)
	if !b.active[i] {
		// Extension: observation of isolated nodes.
		if b.cfg.ReintegrationThreshold > 0 {
			if health == Faulty {
				b.observe[i] = 0
				return false, false
			}
			b.observe[i]++
			if b.observe[i] >= b.cfg.ReintegrationThreshold {
				b.active[i] = true
				b.penalties[i] = 0
				b.rewards[i] = 0
				b.observe[i] = 0
				b.activeMask |= bit
				b.attention &^= bit
				return false, true
			}
		}
		return false, false
	}
	if health == Faulty {
		b.penalties[i] += b.cfg.criticality(j)
		b.rewards[i] = 0
		if b.penalties[i] > b.cfg.PenaltyThreshold {
			b.active[i] = false
			b.observe[i] = 0
			b.activeMask &^= bit
			if b.cfg.ReintegrationThreshold > 0 {
				b.attention |= bit
			} else {
				b.attention &^= bit
			}
			return true, false
		}
		b.attention |= bit
		return false, false
	}
	if b.penalties[i] > 0 {
		b.rewards[i]++
		if b.rewards[i] >= b.cfg.RewardThreshold {
			b.penalties[i] = 0
			b.rewards[i] = 0
			b.attention &^= bit
		}
	}
	return false, false
}
