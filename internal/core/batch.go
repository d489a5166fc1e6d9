package core

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"ttdiag/internal/invariant"
)

// This file is the Alg. 1 kernel. It bit-slices the columns of one cluster
// into a 64-bit plane word and, beyond that, G = ⌊64/N⌋ independent
// repetitions of the SAME cluster shape into one word: lane r occupies bits
// [r·N, (r+1)·N) of every plane, so one carry-save vote pass, one
// penalty/reward sweep and one alignment merge advance G Monte-Carlo runs at
// once. Per-run control flow (self-column, read/send alignment, isolation
// state, membership accusations) is hoisted from branches into
// lane-replicated masks; a run's fault outcome is a mask AND, never an `if`.
// The per-run Protocol is the one-lane view of this kernel; the
// byte-per-entry reference of reference_test.go is its test oracle.

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
	// HealthyRows is an optional hint: bit j-1 set promises that
	// Rows[j].Op ∧ Rows[j].Known covers every live lane's node bits. A warm
	// step whose aligned rows are all present and all marked healthy skips
	// installing its matrix, which it knows to be quiet. The zero value
	// means "unknown" and is always correct; a set bit the rows do not
	// honour is a caller bug (checked under ttdiag_invariants).
	HealthyRows uint64
	// Tally is an optional vote tally shared by the observers of one gang:
	// a warm step that differs from the tallied matrix in few rows corrects
	// the tally's counters instead of voting in full, and a step that votes
	// in full records its vote there. The outputs are the same either way;
	// nil means a plain vote. A tally sized for another N is ignored.
	Tally *VoteTally
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
	// AccusedMask marks the minority accusations raised this round
	// (membership mode), lane-packed. DefiniteMask is its subset whose row
	// holds a definite opinion opposite the verdict on an unguarded column;
	// the others rest on ε entries alone (the trace evidence class).
	AccusedMask, DefiniteMask uint64
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

// batchAlignBuf holds one round's buffered controller observations for read
// and send alignment (Alg. 1 lines 16-17), lane-packed: rows[j] is the copy
// of interface variable j, meaningful in the lanes whose set bit for j holds
// (a clear bit is the ε case); healthy is the HealthyRows hint that came
// with rows; ls is the validity vector observed in the buffered round and al
// the aligned local syndrome computed in it (send alignment, Alg. 1 line 9).
// The kernel keeps two and alternates between them — the buffer written in
// round k is the one read in round k+1.
type batchAlignBuf struct {
	rows    []BitSyndrome
	set     uint64
	healthy uint64
	ls      BitSyndrome
	al      BitSyndrome
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
	// capLanes is the lane capacity the counters were allocated for.
	capLanes int
	steps    int
	lag      int // cfg.Lag(), cached by Reset

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

	// op/know are the gang's diagnostic-matrix scratch (1-based rows),
	// reused every round — StepBatch allocates nothing in steady state.
	// rowSet is the lane-packed row presence of the last warm round.
	op     []uint64
	know   []uint64
	rowSet uint64
	// restoreAcc is RestoreLanes' scratch: the lane-packed words of a lane
	// record, assembled from every restored lane before they are written;
	// nil until the first restore.
	restoreAcc []uint64

	// accuse[k] marks the pending minority accusations (membership mode)
	// that ride k+1 more dissemination writes, lane-packed. age[k] marks the
	// entries whose last accusation was raised k rounds ago, k up to
	// accusationSkew — a shift register, entries aged past the window carry
	// no bit; aging is the union of age[]. Diagnostic-mode runs never set them.
	accuse [accusationTTL]uint64
	age    [accusationSkew + 1]uint64
	aging  uint64

	pr *PenaltyReward

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

	// traces holds the optional per-lane causal flight recorders
	// (SetLaneTrace); tracedLanes marks (bit r) the lanes carrying one, so
	// an untraced gang pays one mask check per step.
	traces      []*StepTrace
	tracedLanes uint64

	// invPrevActive is the previous round's activity mask, kept only by
	// ttdiag_invariants builds for the monotonicity check (invHavePrev
	// false after Reset and CopyFrom).
	invPrevActive uint64
	invHavePrev   bool
	// invLane is the scratch lane record RestoreLanes re-captures into
	// under ttdiag_invariants; nil until the first checked restore.
	invLane []uint64
}

// NewBatchProtocol builds the gang diagnostic job: `lanes` independent runs
// of the node described by cfg, in either mode. It requires
// N·lanes ≤ MaxPackedN, and the counters are sized for exactly `lanes` runs —
// the capacity Reset and CopyFrom may fill.
func NewBatchProtocol(cfg Config, lanes int) (*BatchProtocol, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if max := BatchLanes(cfg.N); lanes < 1 || lanes > max {
		return nil, fmt.Errorf("core: node %d: %d lanes of an N=%d system do not fit one word (1..%d)", cfg.ID, lanes, cfg.N, max)
	}
	pr, err := newPenaltyReward(cfg.N, lanes, cfg.PR)
	if err != nil {
		return nil, err
	}
	// Per-run protocols are built by the thousand (checkpoint twins), so
	// the matrix planes share one allocation and the two alignment
	// buffers another; the telemetry slices and the restore scratch appear
	// on first use.
	w := cfg.N + 1
	planes := make([]uint64, 2*w)
	rows := make([]BitSyndrome, 2*w)
	p := &BatchProtocol{
		cfg:      cfg,
		n:        cfg.N,
		capLanes: lanes,
		op:       planes[:w:w],
		know:     planes[w:],
		pr:       pr,
	}
	p.pbufs[0].rows, p.pbufs[1].rows = rows[:w:w], rows[w:]
	p.Reset(lanes)
	return p, nil
}

// Config returns the shared per-lane configuration.
func (p *BatchProtocol) Config() Config { return p.cfg }

// Lanes returns the current gang width.
func (p *BatchProtocol) Lanes() int { return p.lanes }

// Reset rewinds every lane to the freshly constructed state and sets the
// gang width for the next repetition group (ragged final gangs pass a
// smaller width, up to the construction-time capacity). It keeps all
// allocated buffers.
func (p *BatchProtocol) Reset(lanes int) {
	if lanes < 1 || lanes > p.capLanes {
		panic(fmt.Sprintf("core: node %d: Reset to %d lanes, want 1..%d", p.cfg.ID, lanes, p.capLanes))
	}
	n := p.n
	p.lanes = lanes
	p.lag = p.cfg.Lag()
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
		buf.healthy = 0
		buf.ls, buf.al = hw, hw
	}
	p.lastSentB, p.prevSentB = hw, hw
	p.accuse = [accusationTTL]uint64{}
	p.age = [accusationSkew + 1]uint64{}
	p.aging = 0
	p.invHavePrev = false
	p.steps = 0
	p.pr.reset(lanes)
	p.resyncTraces()
}

// ResetConfig is Reset with a configuration swap at the current gang
// width: it revalidates cfg and restarts every lane under it. The node
// count is fixed at construction time (the buffers are sized for it);
// changing N requires a new instance.
func (p *BatchProtocol) ResetConfig(cfg Config) error {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.N != p.n {
		return fmt.Errorf("core: node %d: ResetConfig cannot change N from %d to %d", p.cfg.ID, p.n, cfg.N)
	}
	if err := p.pr.ResetConfig(cfg.PR); err != nil {
		return err
	}
	p.cfg = cfg
	p.Reset(p.lanes)
	return nil
}

// ownRowB returns the lane-packed syndromes this node physically transmitted
// in the previous round: the last written payload when the node's job runs
// before its sending slot, and the one before that otherwise (the write of
// round k-1 is only transmitted in round k).
func (p *BatchProtocol) ownRowB() BitSyndrome {
	if p.cfg.SendCurrRound {
		return p.lastSentB
	}
	return p.prevSentB
}

// StepBatch executes the diagnostic job of every lane for one round: each
// phase of Alg. 1 runs once on lane-packed words and advances all lanes
// together. Rows stays caller-owned (entries are copied by value) and may be
// reused immediately. The steady state allocates nothing — the output is all
// values and the matrix scratch is protocol-owned.
//
//ttdiag:noretain params
func (p *BatchProtocol) StepBatch(in BatchRoundInput) (BatchRoundOutput, error) {
	var out BatchRoundOutput
	if err := p.StepBatchInto(&in, &out); err != nil {
		return BatchRoundOutput{}, err
	}
	return out, nil
}

// StepBatchInto is StepBatch through pointers: it reads the round's input
// from in and writes the gang output into out, sparing a caller that steps
// every round the copies of both structs. Neither is retained. On error
// out is left as it was.
//
//ttdiag:noretain params
func (p *BatchProtocol) StepBatchInto(in *BatchRoundInput, out *BatchRoundOutput) error {
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return fmt.Errorf("core: node %d: StepBatch round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if len(in.Rows) != p.n+1 {
		return fmt.Errorf("core: node %d: Rows has %d entries, want %d", p.cfg.ID, len(in.Rows), p.n+1)
	}
	p.step(in, out)
	return nil
}

// step is StepBatch on a validated input, writing its result into out and
// installing a warm round's diagnostic matrix into the protocol-owned
// scratch planes op/know (1-based rows) unless the HealthyRows hints show it
// quiet.
//
//ttdiag:noretain params
func (p *BatchProtocol) step(in *BatchRoundInput, out *BatchRoundOutput) {
	if invariant.Enabled {
		p.checkHealthyRows(in)
	}
	n := p.n
	op, know := p.op, p.know
	all := p.allB
	present := in.Present & all
	validity := in.Validity.normalized(all)

	// rd was written in the previous round; wr becomes next round's rd.
	rd := &p.pbufs[p.steps&1]
	wr := &p.pbufs[(p.steps+1)&1]

	// Phases 1 and 3 — local detection and aggregation (read alignment,
	// Alg. 1 lines 1-6): entries 1..l_i come from the previous read, the
	// rest from the current one, so every aligned value refers to a message
	// sent in round k-1. Under dynamic scheduling the read point is pinned
	// to round start (l = 0). All lanes share l_i, so the split is two mask
	// merges over lane-replicated masks.
	low := p.lowB
	hi := all &^ low
	alSet := (rd.set & low) | (present & hi)
	alLS := BitSyndrome{
		Op:    (rd.ls.Op & low) | (validity.Op & hi),
		Known: (rd.ls.Known & low) | (validity.Known & hi),
	}
	wr.al = alLS

	*out = BatchRoundOutput{Round: in.Round, DiagnosedRound: -1}

	// Phase 4 — analysis (Alg. 1 lines 11-14). In membership mode this runs
	// before dissemination so that minority accusations can be added to the
	// outgoing syndrome; in diagnostic mode the ordering is unobservable.
	lag := p.lag
	warm := p.steps >= lag
	var diagRound int
	var quiet bool // warm with a quiet matrix, so the vote is skipped
	if warm {
		self := p.selfB
		rowSet := (alSet &^ self) | self
		p.rowSet = rowSet
		l := p.cfg.L
		if p.cfg.Dynamic {
			l = 0
		}
		// A quiet matrix — every row present, all-Healthy and fully Known
		// in every lane — can only vote all-Healthy: Eqn. 1 without a
		// Faulty opinion, and every column has a voter because N ≥ 2. When
		// the hints already vouch for every aligned row, and the own row is
		// checked directly, even the install is skipped: op/know then stay
		// stale, and no reader of them runs on a quiet round.
		own := p.ownRowB()
		lowRows := PlaneMask(l)
		hinted := (rd.healthy & lowRows) | (in.HealthyRows &^ lowRows) | 1<<uint(p.cfg.ID-1)
		quiet = rowSet == all && hinted&p.laneAll == p.laneAll && own.Op&own.Known&all == all
		quietLanes := p.laneRep
		tally := in.Tally
		if tally != nil && tally.n != n {
			tally = nil
		}
		var differ uint64
		if !quiet {
			var acc uint64
			acc, differ = p.install(in.Rows, rd.rows, rowSet, l, tally)
			quiet = acc&all == all
			if p.anyMetrics && !quiet {
				quietLanes = p.laneRep &^ p.laneAny(all&^acc)
			}
		}

		var votes *laneVotes
		if p.anyMetrics {
			votes = &p.votes
		}
		consOp, consKnown := all, all
		if !quiet {
			consOp, consKnown = p.vote(tally, differ, votes)
		} else if votes != nil {
			*votes = laneVotes{any: all}
		}
		if votes != nil {
			votes.quiet = quietLanes
		}
		if invariant.Enabled && quiet {
			p.checkQuietVote(in, rd, rowSet, l)
		}

		diagRound = in.Round - lag
		// ⊥ fallback (Alg. 1 line 14): H-maj returned ⊥ on the columns
		// outside consKnown — at least N-1 nodes could not send their
		// syndromes, so only self-diagnosis can be left undecided. Those
		// columns resolve to the lane's local collision verdict, one per
		// lane and round, expanded into a lane mask (cold: ⊥ needs ≥ N-1
		// silent senders in that lane).
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
		// A quiet matrix conflicts with no verdict, so the membership
		// analysis would raise nothing and touch no register.
		if p.cfg.Mode == ModeMembership && !quiet {
			out.AccusedMask, out.DefiniteMask = p.accuseMinorities(consOp, op, know)
		}
	}

	// Phase 2 — dissemination (send alignment, Alg. 1 lines 7-10): choose
	// the syndrome whose transmission round keeps all disseminated
	// syndromes referring to the same diagnosed round.
	var outBits BitSyndrome
	switch {
	case p.cfg.AllSendCurrRound:
		outBits = alLS
	case p.cfg.SendCurrRound:
		outBits = rd.al
	default:
		outBits = alLS
	}
	if p.cfg.Mode == ModeMembership {
		// Pending accusations force the accused entries to Faulty, then
		// every one of them rides one write fewer.
		var pending uint64
		for _, m := range p.accuse {
			pending |= m
		}
		if pending != 0 {
			outBits.Op &^= pending
			outBits.Known |= pending
			copy(p.accuse[:], p.accuse[1:])
			p.accuse[accusationTTL-1] = 0
		}
	}
	out.SendOp, out.SendKnown = outBits.Op, outBits.Known

	// Phase 5 — update counters (Alg. 1 line 15, Alg. 2): one masked sweep
	// over every lane's faulty columns plus the lanes' attention sets.
	if warm {
		out.IsolatedMask, out.ReintegratedMask = p.pr.updateMasked(out.ConsKnown &^ out.ConsOp & all)
	}
	out.ActiveMask = p.pr.activeMask

	// Buffering for the next round (Alg. 1 lines 16-17). Rows are kept
	// raw: absent lane segments, ε entries and bits beyond a lane's nodes
	// may hold garbage, and every read masks them out (presence bits,
	// Op ∧ Known, the lane segment).
	wr.set = present
	copy(wr.rows, in.Rows)
	wr.healthy = in.HealthyRows
	wr.ls = validity
	p.prevSentB = p.lastSentB
	p.lastSentB = outBits
	if p.anyMetrics {
		p.emitMetrics(out, warm, quiet, diagRound, op, know)
	}
	if p.tracedLanes != 0 && warm {
		p.emitTraces(out)
	}
	if p.aging != 0 {
		// Advance the skew-guard ages; the oldest generation leaves the
		// window. Entries saturated past it (the steady state of every
		// node) carry no bit and cost nothing.
		p.aging &^= p.age[accusationSkew]
		copy(p.age[1:], p.age[:accusationSkew])
		p.age[0] = 0
	}
	if invariant.Enabled {
		p.checkStepInvariants(out)
	}
	p.steps++
}

// install writes a warm round's gang matrix into the scratch planes op/know
// and returns the AND of its op planes, whose lane segments are all set
// exactly in the lanes with a quiet matrix, and the rows (bit j-1 = row j)
// that differ from the tally's, read in the same pass; without a tally the
// rows are compared with the stale planes they overwrite, and that result
// means nothing. Row j's lane segment is live iff
// lane r's rowSet bit for j is set; compressing those bits onto the lane
// replicator and multiplying by the segment mask expands per-lane row
// presence into a plane mask (fault outcome as mask AND, not branch).
// Entries 1..l come from the previous read (held), the rest from the
// current one, and each lane's own row is its locally buffered copy of the
// syndrome it physically transmitted in round k-1 — available even when the
// transmission itself failed (Lemma 3).
func (p *BatchProtocol) install(rows, held []BitSyndrome, rowSet uint64, l int, t *VoteTally) (acc, differ uint64) {
	n := p.n
	op, know := p.op[:n+1], p.know[:n+1]
	baseOp, baseKnow := op, know
	if t != nil {
		baseOp, baseKnow = t.op[:n+1], t.know[:n+1]
	}
	rows, held = rows[:n+1], held[:n+1]
	laneRep, laneAll := p.laneRep, p.laneAll
	id, own := p.cfg.ID, p.ownRowB()
	acc = ^uint64(0)
	for j := 1; j <= n; j++ {
		row := rows[j]
		if j <= l {
			row = held[j]
		}
		if j == id {
			row = own
		}
		seg := ((rowSet >> uint(j-1)) & laneRep) * laneAll
		o, k := row.Op&row.Known&seg, row.Known&seg
		d := (o ^ baseOp[j]) | (k ^ baseKnow[j])
		differ |= (d | -d) >> 63 << uint(j-1) // bit j-1 iff d != 0
		op[j], know[j] = o, k
		acc &= o
	}
	return acc, differ
}

// vote is the warm step's vote over the installed matrix. With a tally of
// the same lane layout and at most tallyMaxRows differing rows it corrects
// the tally's counters; otherwise it votes in full and, given a tally,
// makes this vote the tally. Both end in finishVote.
func (p *BatchProtocol) vote(t *VoteTally, differ uint64, votes *laneVotes) (consOp, consKnown uint64) {
	if t == nil {
		return voteAllLanes(p.op, p.know, p.n, p.laneRep, votes)
	}
	if t.laneRep == p.laneRep && bits.OnesCount64(differ) <= tallyMaxRows(p.n) {
		healthy, faulty := t.correct(p.op, p.know, differ)
		if invariant.Enabled {
			p.checkTallyVote(&healthy, &faulty)
		}
		return finishVote(&healthy, &faulty, votes)
	}
	t.record(p.op, p.know, p.laneRep)
	return finishVote(&t.healthy, &t.faulty, votes)
}

// laneAny folds each live lane's segment of x to the segment's lowest bit
// (a lane replicator subset): the low n-1 bits of a segment plus all-ones
// carry into the segment's top bit iff any of them is set, and the sum
// stays below 2^n, so lanes never interact.
func (p *BatchProtocol) laneAny(x uint64) uint64 {
	n := p.n
	top := p.laneRep << uint(n-1)
	lowBits := p.allB &^ top
	return ((((x & lowBits) + lowBits) | x) & top) >> uint(n-1)
}

// accuseMinorities is the membership analysis of Sec. 7 over the warm gang
// matrix: every lane's rows that conflict with that lane's consistent health
// vector receive a minority accusation. A row conflicts wherever it is known
// with the opposite opinion, or ε where the vector holds a verdict (the
// vector is all-Known here). Entries whose verdict may still be driven by a
// recent accusation are skipped (the accusationSkew guard), as is each
// lane's own entry once that lane sees itself convicted — it is the accused
// party and must not counter-accuse rows carrying the other clique's
// verdict. It returns the accusations raised and their definite-evidence
// subset, and records them in the TTL and age registers.
func (p *BatchProtocol) accuseMinorities(consOp uint64, op, know []uint64) (accused, definite uint64) {
	n := p.n
	all := p.allB
	convicted := p.selfB &^ consOp
	skip := p.aging&^p.age[0] | convicted
	for j := 1; j <= n; j++ {
		rows := (p.rowSet >> uint(j-1)) & p.laneRep
		if j == p.cfg.ID || rows == 0 {
			continue
		}
		keep := all &^ (skip | p.laneRep<<uint(j-1))
		wrong := know[j] & (op[j] ^ consOp) & keep
		acc := p.laneAny(wrong|all&^know[j]&keep) & rows
		accused |= acc << uint(j-1)
		definite |= p.laneAny(wrong) & acc << uint(j-1)
	}
	// The registers change only after every row was judged, so all rows see
	// the same guard state.
	if accused != 0 {
		for k := range p.accuse {
			p.accuse[k] &^= accused
		}
		p.accuse[accusationTTL-1] |= accused
	}
	if fresh := accused | convicted; fresh != 0 {
		for k := range p.age {
			p.age[k] &^= fresh
		}
		p.age[0] |= fresh
		p.aging |= fresh
	}
	return accused, definite
}

// laneVotes classifies one warm round's gang vote column by column, as
// lane-packed masks: any marks the columns with at least one opinion (⊥ is
// its complement), faulty the strict faulty majorities, tied the exact
// non-zero ties (which H-maj resolves to Healthy). quiet marks (bit r·N)
// the lanes whose installed matrix was all-Healthy and fully Known.
type laneVotes struct {
	any, faulty, tied uint64
	quiet             uint64
}

// voteAllLanes is the word-parallel vote kernel, for a gang and — with
// laneRep 1 — for Matrix.VoteAll: every row contributes its healthy and
// faulty opinion masks (self-opinion column removed per Sec. 5, the mask
// replicated into every lane by laneRep) to two bit-sliced per-column
// counters, and the Faulty verdicts fall out of one bit-sliced comparison —
// the borrow of the 6-bit subtraction healthy − faulty, computed with the
// full-subtractor recurrence borrow' = (¬h ∧ (f ∨ borrow)) ∨ (f ∧ borrow).
// Columns with no contribution at all are ⊥, and ties land on Healthy
// because a tie produces no borrow — exactly Eqn. 1. op/know are the
// 1-based matrix planes, already restricted to the live lanes (absent rows
// carry zero know segments). Per-column counts stay ≤ N-1 ≤ 63, so the six
// counter planes cover every lane at once. A non-nil votes additionally
// receives the column classification the telemetry needs, read off the same
// counter planes. It is tallyLanes then finishVote; a vote taken from a
// VoteTally runs finishVote on corrected counters instead. FuzzVoteAll pins
// the one-lane form against the scalar H-maj, FuzzVoteAllBatch the gang form
// lane by lane against VoteAll, FuzzVoteTally the tallied form against it.
func voteAllLanes(op, know []uint64, n int, laneRep uint64, votes *laneVotes) (consOp, consKnown uint64) {
	healthy, faulty := tallyLanes(op, know, n, laneRep)
	return finishVote(&healthy, &faulty, votes)
}

// tallyLanes is the counting half of voteAllLanes: the bit-sliced healthy
// and faulty counters of every column, counted from scratch.
func tallyLanes(op, know []uint64, n int, laneRep uint64) (healthy, faulty [countPlanes]uint64) {
	op, know = op[:n+1], know[:n+1]
	for i := 1; i <= n; i++ {
		valid := know[i] &^ (laneRep << uint(i-1))
		if valid == 0 {
			continue
		}
		addPlane(&healthy, op[i]&valid)
		addPlane(&faulty, valid&^op[i])
	}
	return healthy, faulty
}

// finishVote is the deciding half of voteAllLanes, shared with the votes
// taken from a VoteTally: the borrow compare over the counters. A column
// has an opinion iff one of its counts is non-zero.
func finishVote(healthy, faulty *[countPlanes]uint64, votes *laneVotes) (consOp, consKnown uint64) {
	var borrow, any uint64
	for k := 0; k < countPlanes; k++ {
		borrow = (^healthy[k] & (faulty[k] | borrow)) | (faulty[k] & borrow)
		any |= healthy[k] | faulty[k]
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
	if p.metrics == nil {
		if m == nil {
			return // nothing attached, nothing to detach
		}
		p.metrics = make([]*StepMetrics, p.capLanes)
	}
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
// instruments, with the totals each lane's run would emit on its own. It
// works on lane-packed masks: the vote outcomes come
// from the kernel's classification, disagreements are one masked popcount
// per matrix row, and every quantity folds into a group's counters with one
// popcount, so the cost does not grow with the lane count.
func (p *BatchProtocol) emitMetrics(out *BatchRoundOutput, warm, quiet bool, diagRound int, op, know []uint64) {
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
		m.Accusations.Add(int64(bits.OnesCount64(out.AccusedMask & seg)))
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
		m.MatrixQuiet.Add(int64(bits.OnesCount64(rep & v.quiet)))
		// A quiet matrix agrees with its all-Healthy verdict everywhere,
		// and op/know may be stale after a skipped install.
		var disagreements int
		for i := 1; i <= n && !quiet; i++ {
			conflict := know[i] & out.ConsKnown & (op[i] ^ out.ConsOp) &^ (p.laneRep << uint(i-1))
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

// SnapshotLane serialises lane `lane`'s full protocol state to JSON,
// byte-identical to Protocol.Snapshot of a per-run instance that ran the
// same inputs: the accusation registers are materialised as the per-node
// counters the snapshot format carries.
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
		Accuse:     make([]int, n+1),
		AccusedAge: make([]int, n+1),
		PR: prSnapshot{
			Penalties: p.pr.penalties[base : base+n+1 : base+n+1],
			Rewards:   p.pr.rewards[base : base+n+1 : base+n+1],
			Active:    p.pr.active[base : base+n+1 : base+n+1],
			Observe:   p.pr.observe[base : base+n+1 : base+n+1],
		},
	}
	snap.AccusedAge[0] = accusationSkew + 1
	for j := 1; j <= n; j++ {
		bit := uint64(1) << uint(lane*n+j-1)
		for k, m := range p.accuse {
			if m&bit != 0 {
				snap.Accuse[j] = k + 1
			}
		}
		snap.AccusedAge[j] = accusationSkew + 1
		for k, m := range p.age {
			if m&bit != 0 {
				snap.AccusedAge[j] = k
			}
		}
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
