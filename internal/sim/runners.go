package sim

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/core"
	"ttdiag/internal/membership"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// inputScratch is a runner-owned reusable backing for core.PackedRoundInput:
// the per-sender two-word syndromes and the collision-detector closure are
// allocated once and overwritten every round (the protocol copies its inputs
// in, so reuse after the step is safe).
type inputScratch struct {
	rows []core.BitSyndrome
	// collision is cached per controller so the hot path does not allocate
	// a fresh closure every round.
	collision core.CollisionFn
	ctrl      *tdma.Controller
}

// bindCollision (re)caches the collision-detector closure for ctrl.
func (sc *inputScratch) bindCollision(ctrl *tdma.Controller) {
	if sc.ctrl == ctrl {
		return
	}
	sc.ctrl = ctrl
	sc.collision = func(r int) core.Opinion {
		if collided, ok := ctrl.Collision(r); ok && collided {
			return core.Faulty
		}
		return core.Healthy
	}
}

// build converts interface-variable values and validity bits (from a live
// read or a stored round-start snapshot) into the protocol's round input:
// each valid payload is word-loaded straight into planes, and an
// undecodable payload drops out of both the presence and validity masks —
// a syntactically wrong payload is locally detectable, so it reads as ε and
// invalid. The returned input aliases sc.rows and is valid until the next
// build; values stay caller-owned (typically controller scratch) and are
// only read.
//
//ttdiag:noretain
func (sc *inputScratch) build(round, n int, values [][]byte, validMask uint64, ctrl *tdma.Controller) core.PackedRoundInput {
	if sc.rows == nil {
		sc.rows = make([]core.BitSyndrome, n+1)
	}
	sc.bindCollision(ctrl)
	all := core.PlaneMask(n)
	var present uint64
	for rem := validMask & all; rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem) + 1
		row, err := core.BitSyndromeFromWire(values[j], n)
		if err != nil {
			continue
		}
		sc.rows[j] = row
		present |= rem & -rem
	}
	return core.PackedRoundInput{
		Round:     round,
		Rows:      sc.rows,
		Present:   present,
		Validity:  core.BitSyndrome{Op: present, Known: all},
		Collision: sc.collision,
	}
}

// applyActivity propagates the protocol's activity vector into the node's
// controller: traffic from isolated nodes is ignored, reintegrated nodes are
// heard again. When the reintegration extension is enabled (observe), the
// controller keeps listening to isolated nodes so that their fault-free
// behaviour can be observed and rewarded; the activity vector still tells
// the applications the node is down.
func applyActivity(ctrl *tdma.Controller, n int, active uint64, observe bool) {
	for j := 1; j <= n; j++ {
		ctrl.SetIgnored(tdma.NodeID(j), active&(1<<uint(j-1)) == 0 && !observe)
	}
}

// activityCache elides the per-node SetIgnored sweep when the activity mask
// did not change since the last application — the common case of every
// steady-state round. Skipping is sound because SetIgnored is
// idempotent: an already-ignored sender keeps being dropped by ApplyDelivery
// without re-marking, and an already-heard sender needs no unmarking.
type activityCache struct {
	ctrl *tdma.Controller // nil until the first application
	mask uint64
}

func (c *activityCache) reset() { c.ctrl = nil }

func (c *activityCache) apply(ctrl *tdma.Controller, n int, active uint64, observe bool) {
	if c.ctrl == ctrl && c.mask == active {
		return
	}
	applyActivity(ctrl, n, active, observe)
	c.ctrl, c.mask = ctrl, active
}

// payloadBuf is a runner-owned dissemination buffer: the engine copies the
// staged payload into the controller (WriteInterface), so one buffer serves
// every round.
type payloadBuf []byte

// encode renders send's n-node wire form into the buffer and returns it.
func (b *payloadBuf) encode(send core.BitSyndrome, n int) []byte {
	if len(*b) != core.EncodedLen(n) {
		*b = make([]byte, core.EncodedLen(n))
	}
	send.EncodeInto(*b)
	return *b
}

// DiagRunner adapts a core.Protocol to the engine: it snapshots the
// controller, steps the protocol, applies isolation decisions to the
// controller, and stages the dissemination payload.
type DiagRunner struct {
	proto   *core.Protocol
	last    core.RoundOutput
	scratch inputScratch
	act     activityCache
	payload payloadBuf
	// OnOutput, when set, observes every round output (used by collectors).
	OnOutput func(core.RoundOutput)

	// Round-start interface snapshot, captured by the engine for
	// dynamically scheduled nodes (core.Config.Dynamic). The value buffers
	// are runner-owned and reused across rounds.
	snapRound     int
	snapValues    [][]byte
	snapValidMask uint64
	haveSnap      bool
}

// CaptureSnapshot implements SnapshotTaker: it pins the node's read point to
// round start, which is what makes dynamic execution times sound (see
// core.Config.Dynamic).
func (r *DiagRunner) CaptureSnapshot(round int, ctrl *tdma.Controller) {
	if !r.proto.Config().Dynamic {
		return
	}
	values, _ := ctrl.ReadAll()
	n := r.proto.Config().N
	if r.snapValues == nil {
		r.snapValues = make([][]byte, n+1)
	}
	for j := 1; j <= n; j++ {
		r.snapValues[j] = append(r.snapValues[j][:0], values[j]...)
	}
	r.snapValidMask = ctrl.ValidMask()
	r.snapRound = round
	r.haveSnap = true
}

// ResetForRun returns the runner (and its protocol) to the freshly
// constructed state so one instance can be reused across campaign
// repetitions: the protocol restarts its warm-up, the last output and the
// dynamic-scheduling snapshot are dropped, and any OnOutput observer is
// detached (campaign loops attach a fresh collector per repetition).
func (r *DiagRunner) ResetForRun() {
	r.proto.Reset()
	r.last = core.RoundOutput{}
	r.OnOutput = nil
	r.haveSnap = false
	r.act.reset()
}

var _ Runner = (*DiagRunner)(nil)

// NewDiagRunner builds the runner and its protocol instance.
func NewDiagRunner(cfg core.Config) (*DiagRunner, error) {
	proto, err := core.NewProtocol(cfg)
	if err != nil {
		return nil, err
	}
	return &DiagRunner{proto: proto}, nil
}

// Protocol returns the wrapped protocol.
func (r *DiagRunner) Protocol() *core.Protocol { return r.proto }

// Last returns the most recent round output.
func (r *DiagRunner) Last() core.RoundOutput { return r.last }

// Run implements Runner. It feeds the protocol plane-form inputs straight
// off the controller's validity mask — no []Opinion or []bool
// materialisation on the hot path.
func (r *DiagRunner) Run(round int, ctrl *tdma.Controller) ([]byte, error) {
	cfg := r.proto.Config()
	var in core.PackedRoundInput
	if cfg.Dynamic {
		if !r.haveSnap || r.snapRound != round {
			return nil, fmt.Errorf("sim: node %d: dynamic protocol without a round-%d snapshot", cfg.ID, round)
		}
		in = r.scratch.build(round, cfg.N, r.snapValues, r.snapValidMask, ctrl)
	} else {
		values, _ := ctrl.ReadAll()
		in = r.scratch.build(round, cfg.N, values, ctrl.ValidMask(), ctrl)
	}
	out, err := r.proto.StepPacked(in)
	if err != nil {
		return nil, err
	}
	r.act.apply(ctrl, cfg.N, out.Active, cfg.PR.ReintegrationThreshold > 0)
	r.last = out
	if r.OnOutput != nil {
		r.OnOutput(out)
	}
	return r.payload.encode(out.Send, cfg.N), nil
}

// MembershipRunner adapts a membership.Service to the engine.
type MembershipRunner struct {
	svc     *membership.Service
	last    membership.Output
	scratch inputScratch
	act     activityCache
	payload payloadBuf
	// OnOutput, when set, observes every round output.
	OnOutput func(membership.Output)
	// sink, when set, receives a KindViewChange causal event whenever a new
	// view is installed. The cluster builders wire it for node 1 only (view
	// synchrony makes every obedient node's transitions identical, so one
	// observer suffices); like the engine sink it is cluster wiring, not a
	// per-run observer, and survives ResetForRun.
	sink trace.Sink
}

// ResetForRun returns the runner (and its membership service) to the freshly
// constructed state so one instance can be reused across campaign
// repetitions; any OnOutput observer is detached.
func (r *MembershipRunner) ResetForRun() {
	r.svc.Reset()
	r.last = membership.Output{}
	r.OnOutput = nil
	r.act.reset()
}

var _ Runner = (*MembershipRunner)(nil)

// NewMembershipRunner builds the runner and its membership service.
func NewMembershipRunner(cfg core.Config) (*MembershipRunner, error) {
	svc, err := membership.New(cfg)
	if err != nil {
		return nil, err
	}
	return &MembershipRunner{svc: svc}, nil
}

// Service returns the wrapped membership service.
func (r *MembershipRunner) Service() *membership.Service { return r.svc }

// Last returns the most recent round output.
func (r *MembershipRunner) Last() membership.Output { return r.last }

// View returns the node's current membership view.
func (r *MembershipRunner) View() membership.View { return r.svc.View() }

// Run implements Runner; like DiagRunner.Run it stays in plane form.
func (r *MembershipRunner) Run(round int, ctrl *tdma.Controller) ([]byte, error) {
	cfg := r.svc.Protocol().Config()
	values, _ := ctrl.ReadAll()
	out, err := r.svc.StepPacked(r.scratch.build(round, cfg.N, values, ctrl.ValidMask(), ctrl))
	if err != nil {
		return nil, err
	}
	r.act.apply(ctrl, cfg.N, out.Diag.Active, cfg.PR.ReintegrationThreshold > 0)
	if r.sink != nil && out.ViewChanged {
		r.sink.Record(viewChangeEvent(round, cfg.ID, out.View))
	}
	r.last = out
	if r.OnOutput != nil {
		r.OnOutput(out)
	}
	return r.payload.encode(out.Diag.Send, cfg.N), nil
}

// viewChangeEvent is the causal event announcing that node id installed view
// v in round, shared with the lane-packed cluster's flight recorder.
func viewChangeEvent(round, id int, v membership.View) trace.Event {
	return trace.Event{
		Round:  round,
		Kind:   trace.KindViewChange,
		Node:   id,
		Detail: fmt.Sprintf("view %d installed (%d members)", v.ID, len(v.Members)),
	}
}
