package core

import (
	"fmt"

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

// RoundOutput is the result of one diagnostic-job execution. It is a plain
// value — packed syndromes and node masks (bit j-1 = node j) — so an output
// can be retained, copied and compared with == indefinitely; no later Step
// touches it.
type RoundOutput struct {
	// Round echoes the executed round.
	Round int
	// Send is the local syndrome to write into the node's interface
	// variable (the dissemination payload); EncodeInto renders its N-bit
	// wire form.
	Send BitSyndrome
	// ConsHV is the consistent health vector for DiagnosedRound, every entry
	// Known. Its zero value (Known == 0) marks the warm-up rounds in which
	// the protocol pipeline produces no vector.
	ConsHV BitSyndrome
	// DiagnosedRound is the absolute round ConsHV refers to (Round-2 or
	// Round-3 per Lemma 1); -1 during warm-up.
	DiagnosedRound int
	// Isolated marks the nodes whose activity bit dropped to 0 in this
	// round.
	Isolated uint64
	// Reintegrated marks the nodes returned to service by the optional
	// reintegration extension.
	Reintegrated uint64
	// Active is the activity vector after the update.
	Active uint64
	// Accused marks the minority accusations raised in this round
	// (membership mode only).
	Accused uint64
}

// Protocol is the per-node diagnostic job state machine (Alg. 1). Create one
// per node with NewProtocol and call Step exactly once per TDMA round.
//
// Protocol is the one-lane view of the kernel: a BatchProtocol with a single
// lane runs every phase (alignment, voting, accusations, Alg. 2, telemetry),
// and Protocol only converts the input and copies the lane's words into
// RoundOutput. The state is bit-plane throughout, which bounds a flat
// system at MaxPackedN nodes (internal/fleet shards wider ones). StepPacked
// accepts the round input in packed form directly; Step packs its
// byte-per-entry input and delegates. The collision detector is queried at
// most once per warm round, for the diagnosed round, and its verdict
// resolves every ⊥ column.
//
// Buffer ownership: Step copies its inputs into protocol-owned scratch
// (callers may reuse RoundInput slices immediately), and RoundOutput is a
// value that no later Step mutates. The diagnostic matrix is not part of the
// output: the kernel votes on its own scratch, and Matrix copies the last
// warm round's out for the callers that inspect it.
type Protocol struct {
	// b is the one-lane kernel; it also owns the telemetry attachment
	// (SetMetrics), whose nil-is-off discipline costs one branch per Step.
	b *BatchProtocol

	// trace is the optional causal flight recorder (SetTrace); nil is off.
	// It survives Reset/ResetConfig so reusable campaign clusters keep
	// emitting across repetitions.
	trace *StepTrace

	// inRows is the scratch for Step's input conversion (StepPacked callers
	// provide their own rows).
	inRows []BitSyndrome
	// warm reports that the kernel's matrix scratch holds the diagnostic
	// matrix of the last Step; it is false after a cold Step, construction,
	// Reset, CopyFrom and restore.
	warm bool
}

// NewProtocol builds the diagnostic job for one node. It refuses systems
// wider than MaxPackedN; shard those with internal/fleet.
func NewProtocol(cfg Config) (*Protocol, error) {
	b, err := NewBatchProtocol(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Protocol{b: b, inRows: make([]BitSyndrome, cfg.N+1)}, nil
}

// Reset returns the protocol to its freshly constructed state (round
// StartRound, warm-up pending, all counters cleared) while keeping its
// allocated buffers, so one instance can be reused across campaign
// repetitions.
func (p *Protocol) Reset() {
	p.b.Reset(1)
	p.warm = false
	if p.trace != nil {
		p.trace.resync(p.b.pr)
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
	if cfg.N != p.b.n {
		return fmt.Errorf("core: node %d: ResetConfig cannot change N from %d to %d", p.b.cfg.ID, p.b.n, cfg.N)
	}
	if err := p.b.pr.ResetConfig(cfg.PR); err != nil {
		return err
	}
	p.b.cfg = cfg
	p.Reset()
	return nil
}

// Config returns the protocol's configuration.
func (p *Protocol) Config() Config { return p.b.cfg }

// PenaltyReward exposes the node's Alg. 2 state for inspection.
func (p *Protocol) PenaltyReward() *PenaltyReward { return p.b.pr }

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
	cfg := &p.b.cfg
	n := cfg.N
	if want := cfg.StartRound + p.b.steps; in.Round != want {
		return RoundOutput{}, fmt.Errorf("core: node %d: Step round %d, want %d", cfg.ID, in.Round, want)
	}
	if in.Validity.N() != n {
		return RoundOutput{}, fmt.Errorf("core: node %d: validity vector covers %d nodes, want %d", cfg.ID, in.Validity.N(), n)
	}
	if len(in.DMs) != n+1 {
		return RoundOutput{}, fmt.Errorf("core: node %d: DMs has %d entries, want %d", cfg.ID, len(in.DMs), n+1)
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
	return p.step(PackedRoundInput{
		Round:     in.Round,
		Rows:      p.inRows,
		Present:   present,
		Validity:  packSyndrome(in.Validity),
		Collision: in.Collision,
	}), nil
}

// StepPacked executes the diagnostic job for one round on packed
// observations, the zero-conversion entry of the hot path. Rows stays
// caller-owned (entries are copied by value) and may be reused immediately.
//
//ttdiag:noretain params
func (p *Protocol) StepPacked(in PackedRoundInput) (RoundOutput, error) {
	cfg := &p.b.cfg
	if want := cfg.StartRound + p.b.steps; in.Round != want {
		return RoundOutput{}, fmt.Errorf("core: node %d: Step round %d, want %d", cfg.ID, in.Round, want)
	}
	if len(in.Rows) != cfg.N+1 {
		return RoundOutput{}, fmt.Errorf("core: node %d: Rows has %d entries, want %d", cfg.ID, len(in.Rows), cfg.N+1)
	}
	return p.step(in), nil
}

// step runs one validated round on the kernel and copies out its lane's
// words; it allocates nothing.
//
//ttdiag:noretain params
func (p *Protocol) step(in PackedRoundInput) RoundOutput {
	b := p.b
	var collision uint64
	if lag := b.cfg.Lag(); b.steps >= lag && in.Collision != nil && in.Collision(in.Round-lag) == Faulty {
		collision = 1
	}
	var bo BatchRoundOutput
	b.step(&BatchRoundInput{
		Round:           in.Round,
		Rows:            in.Rows,
		Present:         in.Present,
		Validity:        in.Validity,
		CollisionFaulty: collision,
	}, &bo)
	p.warm = bo.Warm
	out := RoundOutput{
		Round:          bo.Round,
		Send:           BitSyndrome{Op: bo.SendOp, Known: bo.SendKnown},
		ConsHV:         BitSyndrome{Op: bo.ConsOp, Known: bo.ConsKnown},
		DiagnosedRound: bo.DiagnosedRound,
		Isolated:       bo.IsolatedMask,
		Reintegrated:   bo.ReintegratedMask,
		Active:         bo.ActiveMask,
		Accused:        bo.AccusedMask,
	}
	if p.trace != nil {
		p.emitStepTrace(&out, bo.DefiniteMask)
	}
	if invariant.Enabled {
		p.checkStepInvariants(out)
	}
	return out
}

// Matrix returns a copy of the diagnostic matrix the last Step voted over
// (row ID is the node's own buffered aligned syndrome), or nil when that
// Step was still warming up or no Step ran since construction, Reset,
// CopyFrom or RestoreProtocol. Every call builds a fresh matrix, which later
// Steps never touch.
func (p *Protocol) Matrix() *Matrix {
	if !p.warm {
		return nil
	}
	m, _ := NewPackedMatrix(p.b.n) // n was validated at construction
	copy(m.op, p.b.op)
	copy(m.know, p.b.know)
	m.rowSet = p.b.rowSet
	return m
}
