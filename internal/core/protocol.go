package core

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/invariant"
)

// Mode selects the protocol variant.
type Mode int

// Protocol variants.
const (
	// ModeDiagnostic is the on-line diagnostic protocol of Sec. 5.
	ModeDiagnostic Mode = iota + 1
	// ModeMembership is the modified protocol of Sec. 7: the analysis phase
	// runs before dissemination and nodes whose local syndromes disagree
	// with the consistent health vector receive minority accusations.
	ModeMembership
)

// accusationTTL is how many consecutive dissemination writes carry a minority
// accusation. With unconstrained node scheduling the syndromes aggregated in
// one round can have been written in two different rounds (send alignment),
// so an accusation raised in round k is kept in the outgoing syndrome for two
// writes to guarantee that every obedient node's matrix sees it — preserving
// the two-execution liveness bound of Theorem 2 for any schedule.
const accusationTTL = 2

// accusationSkew is the window (in rounds) after an accusation is raised
// during which disagreement about the accused entry must not trigger further
// accusations. With unconstrained scheduling the diagnostic matrices of the
// transition rounds mix syndromes written before and after the accusation was
// raised, so honest rows can briefly disagree with an accusation-driven
// health-vector entry; without this guard those rows would be accused in a
// cascade. The window covers dissemination (accusationTTL writes) plus the
// aggregation lag.
const accusationSkew = accusationTTL + 2

// Config parameterises one node's diagnostic job.
type Config struct {
	// N is the number of nodes in the system.
	N int
	// ID is this node's 1-based identifier (and sending slot).
	ID int
	// L is l_i: the number of sending slots of the current round that have
	// already been transmitted when this node's diagnostic job executes.
	// It is determined by the node's internal schedule and lies in [0, N-1].
	L int
	// Dynamic enables dynamic node scheduling (Sec. 10): the OS schedules
	// the diagnostic job at a different position every round. A wandering
	// *read* point would lose interface values (a variable overwritten
	// between two reads can never be attributed to the right round), so the
	// dynamic deployment pins the read point: the middleware snapshots the
	// interface variables at round start (equivalent to l_i = 0) and the
	// job may then execute and write at any OS-chosen instant on a fixed
	// side of the node's sending slot (the SendCurrRound side, which send
	// alignment needs to be static). Under Dynamic, L is ignored and the
	// usual L-vs-SendCurrRound consistency check is skipped.
	Dynamic bool
	// SendCurrRound is the send_curr_round_i predicate: true iff the
	// diagnostic job completes before the node's own sending slot, so the
	// syndrome it writes is transmitted in the same round.
	SendCurrRound bool
	// AllSendCurrRound is the global predicate "∀j: send_curr_round_j". When
	// it holds (and is known at design time), every node writes its current
	// aligned syndrome and the protocol's detection latency shrinks from
	// four to three rounds (diagnosed round k-2 instead of k-3).
	AllSendCurrRound bool
	// StartRound is the absolute round number of the first Step call.
	StartRound int
	// Mode selects the diagnostic or membership variant; the zero value
	// means ModeDiagnostic.
	Mode Mode
	// PR tunes the penalty/reward algorithm.
	PR PRConfig
}

// Lag returns the distance between the execution round of a diagnostic job
// and the round it diagnoses: k-2 under AllSendCurrRound, k-3 otherwise
// (Lemma 1).
func (c Config) Lag() int {
	if c.AllSendCurrRound {
		return 2
	}
	return 3
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", c.N)
	}
	if err := checkFlatN(c.N); err != nil {
		return err
	}
	if c.ID < 1 || c.ID > c.N {
		return fmt.Errorf("core: node id %d out of range 1..%d", c.ID, c.N)
	}
	if c.L < 0 || c.L > c.N-1 {
		return fmt.Errorf("core: l_i = %d out of range 0..%d", c.L, c.N-1)
	}
	if c.AllSendCurrRound && !c.SendCurrRound {
		return fmt.Errorf("core: AllSendCurrRound requires SendCurrRound on every node")
	}
	if !c.Dynamic && c.SendCurrRound != (c.L < c.ID) {
		return fmt.Errorf("core: SendCurrRound=%v inconsistent with l_i=%d and id=%d (job runs %s the node's slot)",
			c.SendCurrRound, c.L, c.ID, map[bool]string{true: "before", false: "after"}[c.L < c.ID])
	}
	if c.Mode != ModeDiagnostic && c.Mode != ModeMembership && c.Mode != 0 {
		return fmt.Errorf("core: unknown mode %d", c.Mode)
	}
	return c.PR.Validate(c.N)
}

// CollisionFn answers the local collision detector query for this node's own
// transmission in the given (absolute) round: Faulty when the controller
// could not read the node's message back from the bus, Healthy otherwise.
type CollisionFn func(round int) Opinion

// RoundInput carries what the node's communication controller observed when
// the diagnostic job executes in one round.
type RoundInput struct {
	// Round is the absolute round number; it must advance by exactly one
	// per Step.
	Round int
	// DMs[j] is the decoded diagnostic message currently held in interface
	// variable j (1-based). A nil entry means the validity bit was 0 or the
	// payload was undecodable — the ε case.
	DMs []Syndrome
	// Validity[j] is the validity bit of interface variable j as an
	// Opinion: Healthy for 1, Faulty for 0. Under Config.Dynamic the
	// vectors must come from the round-start snapshot of the interface.
	Validity Syndrome
	// Collision resolves self-diagnosis when no external syndrome is
	// available (Lemma 3). A nil func defaults to Healthy.
	Collision CollisionFn
}

// PackedRoundInput is the plane-form round input: what RoundInput carries as
// slices arrives as bit masks and two-word syndromes, so the hot path never
// touches per-entry byte vectors. Rows[j] is read only when Present bit j-1
// is set (the clear bit is the ε case), and Validity carries the validity
// bits (Healthy = Op bit set; all entries Known in a well-formed input). Rows
// are copied by value — the caller keeps ownership of the slice and may
// reuse it immediately after the call.
type PackedRoundInput struct {
	// Round is the absolute round number; it must advance by exactly one
	// per step.
	Round int
	// Rows[j] is the packed decoded diagnostic message of interface
	// variable j (1-based), meaningful iff Present bit j-1 is set.
	Rows []BitSyndrome
	// Present marks the interface variables holding a decodable valid
	// payload (bit j-1 = variable j).
	Present uint64
	// Validity packs the validity bits of the interface variables.
	Validity BitSyndrome
	// Collision resolves self-diagnosis when no external syndrome is
	// available (Lemma 3). A nil func defaults to Healthy.
	Collision CollisionFn
}

// RoundOutput is the result of one diagnostic-job execution.
type RoundOutput struct {
	// Round echoes the executed round.
	Round int
	// Send is the encoded local syndrome to write into the node's interface
	// variable (the dissemination payload, N bits). It is backed by a ring
	// buffer: valid for the next three Steps, then overwritten — copy it to
	// keep it longer (SendSyndrome is the retain-safe decoded form).
	Send []byte
	// SendSyndrome is the decoded form of Send.
	SendSyndrome Syndrome
	// ConsHV is the consistent health vector for DiagnosedRound, or nil
	// while the protocol pipeline is still warming up.
	ConsHV Syndrome
	// ConsHVBits is the packed form of ConsHV (every entry Known once ConsHV
	// is non-nil); the zero value during warm-up.
	ConsHVBits BitSyndrome
	// DiagnosedRound is the absolute round ConsHV refers to (Round-2 or
	// Round-3 per Lemma 1); -1 when ConsHV is nil.
	DiagnosedRound int
	// Matrix is the diagnostic matrix the analysis voted over (nil during
	// warm-up). Row ID is the node's own buffered aligned syndrome.
	Matrix *Matrix
	// Isolated lists nodes whose activity bit dropped to 0 in this round.
	Isolated []int
	// Reintegrated lists nodes returned to service by the optional
	// reintegration extension.
	Reintegrated []int
	// Active is the activity vector after the update (1-based). Like Send it
	// is ring-buffered: valid for the next three Steps, then overwritten.
	Active []bool
	// ActiveMask is the packed activity vector (bit j-1 = node j active).
	// Unlike Active it is a value, so it is retain-safe.
	ActiveMask uint64
	// Accused lists the minority accusations raised in this round
	// (membership mode only).
	Accused []int
}

// alignBuf holds one round's buffered controller observations for read and
// send alignment (Alg. 1 lines 16-17): the raw interface state and the
// aligned local syndrome derived from it. rows[j] is this buffer's copy of
// interface variable j, meaningful only when set bit j-1 holds (a clear bit
// is the ε case); ls is the validity vector observed in the buffered round
// and al the aligned local syndrome computed in it (used by send alignment,
// Alg. 1 line 9). The protocol keeps two of these and alternates between
// them — the buffer written in round k is the one read in round k+1 — so the
// steady-state hot path performs no allocation for the clones the original
// algorithm keeps.
type alignBuf struct {
	rows []BitSyndrome
	set  uint64
	ls   BitSyndrome
	al   BitSyndrome
}

func (b *alignBuf) reset(n int) {
	hw := bitSyndromeAllHealthy(n)
	for j := 1; j <= n; j++ {
		b.rows[j] = hw
	}
	b.set = PlaneMask(n)
	b.ls, b.al = hw, hw
}

// The packedBlock tiers are the per-round retained blocks of the hot path:
// the diagnostic matrix header, its two row planes, and the byte-per-entry
// consHV/outSyn views of RoundOutput all live in one allocation. Tiering at
// powers of two keeps the footprint close to the system size (the paper's
// experiments run at N <= 16) while still costing exactly one allocation per
// warm round at any width.
type packedBlock4 struct {
	m      Matrix
	planes [2 * 5]uint64
	syn    [2 * 5]Opinion
}

type packedBlock8 struct {
	m      Matrix
	planes [2 * 9]uint64
	syn    [2 * 9]Opinion
}

type packedBlock16 struct {
	m      Matrix
	planes [2 * 17]uint64
	syn    [2 * 17]Opinion
}

type packedBlock32 struct {
	m      Matrix
	planes [2 * 33]uint64
	syn    [2 * 33]Opinion
}

type packedBlock64 struct {
	m      Matrix
	planes [2 * (MaxPackedN + 1)]uint64
	syn    [2 * (MaxPackedN + 1)]Opinion
}

// newPackedRoundBlock allocates the single retained block of one packed
// round and carves it into the matrix and the two output syndromes.
func newPackedRoundBlock(n int) (m *Matrix, consHV, outSyn Syndrome) {
	var planes []uint64
	var syn []Opinion
	switch {
	case n <= 4:
		b := new(packedBlock4)
		m, planes, syn = &b.m, b.planes[:], b.syn[:]
	case n <= 8:
		b := new(packedBlock8)
		m, planes, syn = &b.m, b.planes[:], b.syn[:]
	case n <= 16:
		b := new(packedBlock16)
		m, planes, syn = &b.m, b.planes[:], b.syn[:]
	case n <= 32:
		b := new(packedBlock32)
		m, planes, syn = &b.m, b.planes[:], b.syn[:]
	default:
		b := new(packedBlock64)
		m, planes, syn = &b.m, b.planes[:], b.syn[:]
	}
	w := n + 1
	m.n = n
	initPackedMatrix(m, planes[:2*w])
	consHV = Syndrome(syn[0:w:w])
	outSyn = Syndrome(syn[w : 2*w : 2*w])
	consHV[0], outSyn[0] = Erased, Erased
	return m, consHV, outSyn
}

// Protocol is the per-node diagnostic job state machine (Alg. 1). Create one
// per node with NewProtocol and call Step exactly once per TDMA round.
//
// The state is bit-plane throughout: alignment state, matrix rows, voting
// and the activity update all operate on machine words, which bounds a flat
// system at MaxPackedN nodes (internal/fleet shards wider ones). StepPacked
// accepts the round input in packed form directly; Step packs its
// byte-per-entry input and delegates.
//
// Buffer ownership: Step copies its inputs into protocol-owned scratch
// (callers may reuse RoundInput slices immediately). The analysis results in
// RoundOutput — ConsHV, Matrix, SendSyndrome — are backed by memory
// allocated for that round alone and safe to retain indefinitely; no later
// Step mutates them. Send and Active live in a small ring of reusable
// buffers: they stay valid for the next three Steps and are then
// overwritten, so callers that keep them longer must copy (every in-tree
// consumer either copies immediately or reads only the latest output).
type Protocol struct {
	cfg   Config
	pr    *PenaltyReward
	steps int

	// metrics is the optional telemetry attachment (SetMetrics); nil — the
	// default — costs one branch per Step. It survives Reset/ResetConfig so
	// reusable campaign clusters keep accumulating across repetitions.
	metrics *StepMetrics

	// trace is the optional causal flight recorder (SetTrace); same nil-is-
	// off discipline and lifetime as metrics.
	trace *StepTrace

	// bufs double-buffers the read/send-alignment state: round k reads
	// bufs[k%2] (written in round k-1) and writes bufs[(k+1)%2].
	bufs [2]alignBuf
	// inRows is the scratch for Step's input conversion (StepPacked callers
	// provide their own rows).
	inRows []BitSyndrome
	// lastSent / prevSent are the dissemination payloads of the previous
	// two rounds; the one physically transmitted in round k-1 is this
	// node's own row of the diagnostic matrix.
	lastSent BitSyndrome
	prevSent BitSyndrome
	// sendBufs and activeBufs are the rings backing RoundOutput.Send and
	// RoundOutput.Active: round k writes slot k%4, so an output's buffers
	// survive the next three Steps before being reused.
	sendBufs   [4][]byte
	activeBufs [4][]bool
	// accuse holds the remaining dissemination writes each pending minority
	// accusation is carried for (membership mode); accuseMask mirrors its
	// non-zero entries as a bit mask.
	accuse     []int
	accuseMask uint64
	// accusedAge[j] counts the rounds since an accusation against j was last
	// raised (saturating); it drives the accusationSkew guard. agingMask
	// mirrors the non-saturated entries (age <= accusationSkew) so the
	// per-round aging touches only live counters.
	accusedAge []int
	agingMask  uint64
	// invPrevActive is the previous round's activity vector, kept only by
	// ttdiag_invariants builds for the monotonicity check.
	invPrevActive []bool
}

// NewProtocol builds the diagnostic job for one node. It refuses systems
// wider than MaxPackedN; shard those with internal/fleet.
func NewProtocol(cfg Config) (*Protocol, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pr, err := NewPenaltyReward(cfg.N, cfg.PR)
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		cfg:        cfg,
		pr:         pr,
		inRows:     make([]BitSyndrome, cfg.N+1),
		accuse:     make([]int, cfg.N+1),
		accusedAge: make([]int, cfg.N+1),
	}
	for b := range p.bufs {
		p.bufs[b].rows = make([]BitSyndrome, cfg.N+1)
	}
	for i := range p.sendBufs {
		p.sendBufs[i] = make([]byte, EncodedLen(cfg.N))
		p.activeBufs[i] = make([]bool, cfg.N+1)
	}
	p.Reset()
	return p, nil
}

// Reset returns the protocol to its freshly constructed state (round
// StartRound, warm-up pending, all counters cleared) while keeping its
// allocated buffers, so one instance can be reused across campaign
// repetitions. Previously returned RoundOutputs keep their documented
// retention guarantees: ConsHV/Matrix/SendSyndrome stay valid, Send and
// Active follow the usual ring-buffer window.
func (p *Protocol) Reset() {
	n := p.cfg.N
	p.bufs[0].reset(n)
	p.bufs[1].reset(n)
	p.lastSent = bitSyndromeAllHealthy(n)
	p.prevSent = p.lastSent
	for j := range p.accuse {
		p.accuse[j] = 0
		p.accusedAge[j] = accusationSkew + 1
	}
	p.accuseMask, p.agingMask = 0, 0
	p.invPrevActive = nil
	p.steps = 0
	p.pr.Reset()
	if p.trace != nil {
		p.trace.resync(p.pr)
	}
}

// ResetConfig is Reset with a configuration swap: it revalidates cfg and
// restarts the protocol under it. The node count is fixed at construction
// time (the internal buffers are sized for it); changing N requires a new
// instance.
func (p *Protocol) ResetConfig(cfg Config) error {
	if cfg.Mode == 0 {
		cfg.Mode = ModeDiagnostic
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.N != p.cfg.N {
		return fmt.Errorf("core: node %d: ResetConfig cannot change N from %d to %d", p.cfg.ID, p.cfg.N, cfg.N)
	}
	if err := p.pr.ResetConfig(cfg.PR); err != nil {
		return err
	}
	p.cfg = cfg
	p.Reset()
	return nil
}

// Config returns the protocol's configuration.
func (p *Protocol) Config() Config { return p.cfg }

// PenaltyReward exposes the node's Alg. 2 state for inspection.
func (p *Protocol) PenaltyReward() *PenaltyReward { return p.pr }

// Step executes the diagnostic job for one round. It converts the input to
// plane form and runs StepPacked's path (callers that already hold packed
// observations use StepPacked and skip the conversion); entries of
// DMs/Validity outside {Faulty, Healthy, Erased} are normalised to ε, which
// Eqn. 1's tally treats identically.
//
// The input's slices stay caller-owned: Step copies what it needs, so a
// caller may reuse its DMs/Validity buffers immediately after the call.
//
//ttdiag:noretain params
func (p *Protocol) Step(in RoundInput) (RoundOutput, error) {
	n := p.cfg.N
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return RoundOutput{}, fmt.Errorf("core: node %d: Step round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if in.Validity.N() != n {
		return RoundOutput{}, fmt.Errorf("core: node %d: validity vector covers %d nodes, want %d", p.cfg.ID, in.Validity.N(), n)
	}
	if len(in.DMs) != n+1 {
		return RoundOutput{}, fmt.Errorf("core: node %d: DMs has %d entries, want %d", p.cfg.ID, len(in.DMs), n+1)
	}
	for j := 1; j <= n; j++ {
		if in.DMs[j] != nil && in.DMs[j].N() != n {
			return RoundOutput{}, fmt.Errorf("core: matrix row %d has %d entries, want %d", j, in.DMs[j].N(), n)
		}
	}
	var present uint64
	for j := 1; j <= n; j++ {
		if in.DMs[j] != nil {
			present |= 1 << uint(j-1)
			p.inRows[j] = packSyndrome(in.DMs[j])
		}
	}
	return p.stepPacked(PackedRoundInput{
		Round:     in.Round,
		Rows:      p.inRows,
		Present:   present,
		Validity:  packSyndrome(in.Validity),
		Collision: in.Collision,
	})
}

// StepPacked executes the diagnostic job for one round on packed
// observations, the zero-conversion entry of the hot path. Rows stays
// caller-owned (entries are copied by value) and may be reused immediately.
//
//ttdiag:noretain params
func (p *Protocol) StepPacked(in PackedRoundInput) (RoundOutput, error) {
	if want := p.cfg.StartRound + p.steps; in.Round != want {
		return RoundOutput{}, fmt.Errorf("core: node %d: Step round %d, want %d", p.cfg.ID, in.Round, want)
	}
	if len(in.Rows) != p.cfg.N+1 {
		return RoundOutput{}, fmt.Errorf("core: node %d: Rows has %d entries, want %d", p.cfg.ID, len(in.Rows), p.cfg.N+1)
	}
	return p.stepPacked(in)
}

// stepPacked is the diagnostic job: every phase of Alg. 1 operates on word
// masks, and the only allocation is the round's retained output block. It is
// checked round by round against the byte-per-entry reference of
// reference_test.go.
//
//ttdiag:noretain params
func (p *Protocol) stepPacked(in PackedRoundInput) (RoundOutput, error) {
	n := p.cfg.N
	all := PlaneMask(n)
	present := in.Present & all
	validity := in.Validity.normalized(all)

	// rd was written in the previous round; wr becomes next round's rd.
	rd := &p.bufs[p.steps&1]
	wr := &p.bufs[(p.steps+1)&1]

	// The round's entire indefinitely-retainable output — matrix planes,
	// consistent health vector and outgoing syndrome — lives in one fixed-
	// size block, so the steady-state warm path costs exactly one allocation
	// per Step (Send and Active come from the protocol's buffer rings).
	matrix, consHV, outSyn := newPackedRoundBlock(n)

	// Phases 1 and 3 — local detection and aggregation (read alignment,
	// Alg. 1 lines 1-6): entries 1..l_i come from the previous read, the
	// rest from the current one, so every aligned value refers to a message
	// sent in round k-1. Under dynamic scheduling the read point is pinned
	// to round start (l = 0). On planes the split is two mask merges.
	l := p.cfg.L
	if p.cfg.Dynamic {
		l = 0
	}
	low := PlaneMask(l)
	hi := all &^ low
	alSet := (rd.set & low) | (present & hi)
	alLS := BitSyndrome{
		Op:    (rd.ls.Op & low) | (validity.Op & hi),
		Known: (rd.ls.Known & low) | (validity.Known & hi),
	}
	wr.al = alLS

	out := RoundOutput{Round: in.Round, DiagnosedRound: -1}

	// Phase 4 — analysis (Alg. 1 lines 11-14). In membership mode this runs
	// before dissemination so that minority accusations can be added to the
	// outgoing syndrome; in diagnostic mode the ordering is unobservable.
	warm := p.steps >= p.cfg.Lag()
	if warm {
		self := uint64(1) << uint(p.cfg.ID-1)
		rowSet := (alSet &^ self) | self
		for rem := rowSet; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem) + 1
			var row BitSyndrome
			switch {
			case j == p.cfg.ID:
				// This node's own row is its locally buffered copy of the
				// syndrome it physically transmitted in round k-1 — available
				// even when the transmission itself failed (Lemma 3).
				row = p.ownRow()
			case j <= l:
				row = rd.rows[j]
			default:
				row = in.Rows[j].normalized(all)
			}
			matrix.op[j] = row.Op
			matrix.know[j] = row.Known
		}
		matrix.rowSet = rowSet

		consBits := matrix.voteAllPlanes()
		diagRound := in.Round - p.cfg.Lag()
		// H-maj returned ⊥ on the columns outside consBits.Known: at least
		// N-1 nodes could not send their syndromes. Only self-diagnosis can
		// be left undecided, and it falls back to the local collision
		// detector (Alg. 1 line 14), queried in ascending column order.
		for rem := all &^ consBits.Known; rem != 0; rem &= rem - 1 {
			bit := rem & -rem
			if p.collisionVerdict(in.Collision, diagRound) == Healthy {
				consBits.Op |= bit
			}
			consBits.Known |= bit
		}
		consBits.UnpackInto(consHV)
		out.ConsHV = consHV
		out.ConsHVBits = consBits
		out.DiagnosedRound = diagRound
		out.Matrix = matrix

		if p.cfg.Mode == ModeMembership {
			// Entries whose health-vector value may still be driven by a
			// recent minority accusation are skipped, as is the node's own
			// entry once it sees itself convicted (it is the accused party
			// and must not counter-accuse rows carrying the other clique's
			// verdict) — see accusationSkew.
			skip := p.guardMask()
			if consBits.Op&self == 0 {
				skip |= self
			}
			for rem := rowSet &^ self; rem != 0; rem &= rem - 1 {
				j := bits.TrailingZeros64(rem) + 1
				jb := uint64(1) << uint(j-1)
				// A row conflicts with the health vector wherever it is
				// known with the opposite opinion, or ε where the vector
				// holds a verdict (consBits is all-Known here).
				conflict := (matrix.know[j] & (matrix.op[j] ^ consBits.Op)) | (all &^ matrix.know[j])
				if conflict&^(jb|skip) != 0 {
					p.accuse[j] = accusationTTL
					p.accuseMask |= jb
					out.Accused = append(out.Accused, j)
					if p.trace != nil {
						// Evidence class: a definite opinion opposite the
						// verdict on an unguarded column, vs ε-only conflict.
						definite := (matrix.know[j]&(matrix.op[j]^consBits.Op))&^(jb|skip) != 0
						p.trace.noteEvidence(j, definite)
					}
				}
			}
			// Age updates happen after the whole check loop so that every
			// row is judged against the same guard state.
			for _, j := range out.Accused {
				p.accusedAge[j] = 0
				p.agingMask |= 1 << uint(j-1)
			}
			if consBits.Op&self == 0 {
				p.accusedAge[p.cfg.ID] = 0
				p.agingMask |= self
			}
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
	if p.cfg.Mode == ModeMembership && p.accuseMask != 0 {
		// Pending accusations force the accused entries to Faulty.
		outBits.Op &^= p.accuseMask
		outBits.Known |= p.accuseMask
		for rem := p.accuseMask; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem) + 1
			p.accuse[j]--
			if p.accuse[j] == 0 {
				p.accuseMask &^= 1 << uint(j-1)
			}
		}
	}
	outBits.UnpackInto(outSyn)
	send := p.sendBufs[p.steps&3]
	outBits.EncodeInto(send)
	out.Send = send
	out.SendSyndrome = outSyn

	// Phase 5 — update counters (Alg. 1 line 15, Alg. 2): one masked update
	// that visits only the columns voted faulty plus the nodes with live
	// counters.
	if out.ConsHV != nil {
		out.Isolated, out.Reintegrated = p.pr.updateMasked(out.ConsHVBits.Known &^ out.ConsHVBits.Op)
	}
	active := p.activeBufs[p.steps&3]
	copy(active, p.pr.active)
	out.Active = active
	out.ActiveMask = p.pr.activeMask

	// Buffering for the next round (Alg. 1 lines 16-17): copy this round's
	// raw observations into the buffer the next step will read (two-word
	// value copies for the present rows). wr.al already holds the aligned
	// local syndrome, and outBits is a value, so retaining it as lastSent
	// costs nothing.
	wr.set = present
	for rem := present; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		wr.rows[j] = in.Rows[j].normalized(all)
	}
	wr.ls = validity
	p.prevSent = p.lastSent
	p.lastSent = outBits
	if p.metrics != nil {
		p.emitStepMetrics(&out, matrix, warm)
	}
	if p.trace != nil {
		p.emitStepTrace(&out, warm)
	}
	p.ageAccusations()
	p.steps++
	if invariant.Enabled {
		p.checkStepInvariants(out)
	}
	return out, nil
}

// ageAccusations advances the skew-guard ages; counters saturated past the
// window (the steady state of every node) carry no mask bit and cost
// nothing.
func (p *Protocol) ageAccusations() {
	for rem := p.agingMask; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		p.accusedAge[j]++
		if p.accusedAge[j] > accusationSkew {
			p.agingMask &^= 1 << uint(j-1)
		}
	}
}

// guardMask returns the accusationSkew guard as a column mask: bit j-1 set
// iff accusedAge[j] lies in [1, accusationSkew].
func (p *Protocol) guardMask() uint64 {
	var m uint64
	for rem := p.agingMask; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		if a := p.accusedAge[j]; a >= 1 && a <= accusationSkew {
			m |= 1 << uint(j-1)
		}
	}
	return m
}

// rebuildAccusationMasks recomputes accuseMask and agingMask from the
// counter slices (used after a snapshot restore replaces them).
func (p *Protocol) rebuildAccusationMasks() {
	p.accuseMask, p.agingMask = 0, 0
	for j := 1; j <= p.cfg.N; j++ {
		bit := uint64(1) << uint(j-1)
		if p.accuse[j] > 0 {
			p.accuseMask |= bit
		}
		if p.accusedAge[j] <= accusationSkew {
			p.agingMask |= bit
		}
	}
}

// ownRow returns the syndrome this node physically transmitted in the
// previous round: the last written payload when the node's job runs before
// its sending slot, and the one before that otherwise (the write of round
// k-1 is only transmitted in round k).
func (p *Protocol) ownRow() BitSyndrome {
	if p.cfg.SendCurrRound {
		return p.lastSent
	}
	return p.prevSent
}

func (p *Protocol) collisionVerdict(fn CollisionFn, round int) Opinion {
	if fn == nil {
		return Healthy
	}
	switch fn(round) {
	case Faulty:
		return Faulty
	default:
		return Healthy
	}
}
