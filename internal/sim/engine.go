// Package sim provides the deterministic lock-step simulation engine: it
// drives a TDMA bus and the per-node application jobs through rounds,
// honouring each node's internal schedule (the position l_i of its
// diagnostic job within the round), records ground truth for every
// transmission, and offers audit helpers that check the protocol's
// correctness, completeness and consistency properties against that ground
// truth (Theorem 1).
package sim

import (
	"fmt"
	"time"

	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// Runner is a per-node application job executed once per round at the node's
// schedule position. The returned payload, if non-nil, is written to the
// node's interface variable (and transmitted at the node's next sending
// slot, subject to send alignment handled by the protocol itself).
type Runner interface {
	Run(round int, ctrl *tdma.Controller) ([]byte, error)
}

// SlotObserver is implemented by runners that additionally process every
// completed sending slot (the constrained-scheduling low-latency variant of
// Sec. 10). OnSlotComplete is called right after each slot transmission,
// with the observing node's own controller.
type SlotObserver interface {
	OnSlotComplete(round, slot int, ctrl *tdma.Controller) error
}

// SnapshotTaker is implemented by runners of dynamically scheduled nodes:
// the engine invokes CaptureSnapshot at the start of every round (before
// slot 1 transmits), pinning the node's interface read point independently
// of when its job executes.
type SnapshotTaker interface {
	CaptureSnapshot(round int, ctrl *tdma.Controller)
}

// node binds a runner to its controller and schedule position. pos returns
// the diagnostic job's position for a given round (constant for static
// schedules, OS-provided for dynamic ones); an error fails the round.
type node struct {
	id     tdma.NodeID
	pos    func(round int) (int, error)
	ctrl   *tdma.Controller
	runner Runner
}

// Engine is the lock-step round executor.
type Engine struct {
	sched *tdma.Schedule
	bus   *tdma.Bus
	nodes []*node    // 1-based
	sink  trace.Sink // nil: no events are built
	round int

	// truth is the ground-truth outcome class of every executed
	// transmission, stored as one flat block of (N+1)-entry rows: entry
	// round*(N+1)+slot is the class of that slot's transmission (slot 0
	// unused). The block grows by doubling, so RunRound performs no
	// steady-state allocation for it.
	truth []tdma.OutcomeClass

	// positions is RunRound's per-round scratch for the nodes' job
	// positions (1-based).
	positions []int
}

// NewEngine builds an engine over a fresh bus for the given schedule; a nil
// sink records no events.
func NewEngine(sched *tdma.Schedule, sink trace.Sink) *Engine {
	return &Engine{
		sched:     sched,
		bus:       tdma.NewBus(sched, sink),
		nodes:     make([]*node, sched.N()+1),
		sink:      sink,
		positions: make([]int, sched.N()+1),
	}
}

// ResetForRun rewinds the engine to round 0 for a fresh repetition: the
// recorded ground truth is discarded, every attached controller is reset and
// all bus disturbances are removed, while the allocated buffers, the nodes
// and their runners are kept. Runners carry their own protocol state and
// must be reset separately (see DiagRunner.ResetForRun); ground-truth views
// returned by Truth before the reset are invalidated.
func (e *Engine) ResetForRun() {
	e.round = 0
	e.truth = e.truth[:0]
	e.bus.ClearDisturbances()
	for id := 1; id < len(e.nodes); id++ {
		if e.nodes[id] != nil {
			e.nodes[id].ctrl.Reset()
		}
	}
}

// Bus returns the engine's bus (to attach disturbances).
func (e *Engine) Bus() *tdma.Bus { return e.bus }

// Schedule returns the global communication schedule.
func (e *Engine) Schedule() *tdma.Schedule { return e.sched }

// Round returns the next round to execute.
func (e *Engine) Round() int { return e.round }

// AddNode registers a runner for node id with diagnostic-job position l
// (the node's l_i: its job runs right after slot l of each round).
func (e *Engine) AddNode(id tdma.NodeID, l int, runner Runner) error {
	if l < 0 || l > e.sched.N()-1 {
		return fmt.Errorf("sim: node %d job position %d out of range 0..%d", id, l, e.sched.N()-1)
	}
	return e.AddDynamicNode(id, func(int) (int, error) { return l, nil }, runner)
}

// AddDynamicNode registers a runner whose job position varies per round
// (dynamic node scheduling, Sec. 10). pos(round) must return a position in
// [0, N-1]; a position error or an out-of-range position fails the round.
func (e *Engine) AddDynamicNode(id tdma.NodeID, pos func(round int) (int, error), runner Runner) error {
	if id < 1 || int(id) > e.sched.N() {
		return fmt.Errorf("sim: node id %d out of range 1..%d", id, e.sched.N())
	}
	if pos == nil {
		return fmt.Errorf("sim: node %d: nil position function", id)
	}
	if e.nodes[id] != nil {
		return fmt.Errorf("sim: node %d already added", id)
	}
	ctrl, err := tdma.NewController(id, e.sched.N())
	if err != nil {
		return err
	}
	if err := e.bus.Attach(ctrl); err != nil {
		return err
	}
	e.nodes[id] = &node{id: id, pos: pos, ctrl: ctrl, runner: runner}
	return nil
}

// WrapRunners replaces every attached node's runner with wrap(id, runner).
// RunRound then calls the wrappers exactly where it called the runners; the
// concurrent runtime uses this to host each runner on its own goroutine.
func (e *Engine) WrapRunners(wrap func(id tdma.NodeID, r Runner) Runner) {
	for _, nd := range e.nodes {
		if nd != nil {
			nd.runner = wrap(nd.id, nd.runner)
		}
	}
}

// Controller returns node id's communication controller.
func (e *Engine) Controller(id tdma.NodeID) *tdma.Controller {
	if id < 1 || int(id) >= len(e.nodes) || e.nodes[id] == nil {
		return nil
	}
	return e.nodes[id].ctrl
}

// JobTime returns the simulated time at which the job of a node with
// position l executes in the given round (right after slot l completes).
func (e *Engine) JobTime(round, l int) time.Duration { return e.sched.JobTime(round, l) }

// RunRound executes one TDMA round: slot transmissions in slot order,
// interleaved with the node jobs at their schedule positions.
func (e *Engine) RunRound() error {
	n := e.sched.N()
	for id := 1; id <= n; id++ {
		if e.nodes[id] == nil {
			return fmt.Errorf("sim: node %d missing", id)
		}
	}
	k := e.round
	// The round's ground-truth row is carved out of the flat block beyond
	// its current length and only committed (by extending the length) when
	// the round completes, so a failed round records nothing.
	stride := n + 1
	base := k * stride
	if cap(e.truth) < base+stride {
		grown := make([]tdma.OutcomeClass, len(e.truth), 2*(base+stride))
		copy(grown, e.truth)
		e.truth = grown
	}
	rt := e.truth[base : base+stride : base+stride]
	for i := range rt {
		rt[i] = 0
	}
	positions := e.positions
	for id := 1; id <= n; id++ {
		p, err := e.nodes[id].pos(k)
		if err != nil {
			return fmt.Errorf("sim: round %d node %d: %w", k, id, err)
		}
		if p < 0 || p > n-1 {
			return fmt.Errorf("sim: round %d node %d: job position %d out of range 0..%d", k, id, p, n-1)
		}
		positions[id] = p
	}
	for id := 1; id <= n; id++ {
		if st, ok := e.nodes[id].runner.(SnapshotTaker); ok {
			st.CaptureSnapshot(k, e.nodes[id].ctrl)
		}
	}
	for pos := 0; pos <= n; pos++ {
		for id := 1; id <= n; id++ {
			nd := e.nodes[id]
			if positions[id] != pos {
				continue
			}
			if e.sink != nil {
				e.sink.Record(trace.Event{
					At: e.JobTime(k, pos), Round: k, Kind: trace.KindJobRun, Node: id,
				})
			}
			payload, err := nd.runner.Run(k, nd.ctrl)
			if err != nil {
				return fmt.Errorf("sim: round %d node %d job: %w", k, id, err)
			}
			if payload != nil {
				nd.ctrl.WriteInterface(payload)
			}
		}
		if pos == n {
			break
		}
		report, err := e.bus.TransmitSlot(k, pos+1)
		if err != nil {
			return fmt.Errorf("sim: round %d slot %d: %w", k, pos+1, err)
		}
		rt[pos+1] = report.Classify()
		for id := 1; id <= n; id++ {
			so, ok := e.nodes[id].runner.(SlotObserver)
			if !ok {
				continue
			}
			if err := so.OnSlotComplete(k, pos+1, e.nodes[id].ctrl); err != nil {
				return fmt.Errorf("sim: round %d slot %d observer %d: %w", k, pos+1, id, err)
			}
		}
	}
	e.truth = e.truth[:base+stride]
	e.round++
	return nil
}

// RunRounds executes the given number of rounds.
func (e *Engine) RunRounds(count int) error {
	for i := 0; i < count; i++ {
		if err := e.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// Truth returns the ground-truth outcome classes of the given executed round
// (1-based by slot), or nil if the round has not been executed. The returned
// slice is a read-only view into the engine's flat ground-truth block: it
// stays valid until the next RunRound (which may grow the block) or
// ResetForRun — callers that keep rows across rounds must copy them. Every
// in-tree auditor reads rows immediately or after the run has finished.
//
//ttdiag:noretain
func (e *Engine) Truth(round int) []tdma.OutcomeClass {
	stride := e.sched.N() + 1
	if round < 0 || (round+1)*stride > len(e.truth) {
		return nil
	}
	return e.truth[round*stride : (round+1)*stride : (round+1)*stride]
}
