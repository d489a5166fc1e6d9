// Package cluster is the concurrent runtime: the lock-step engine with every
// node's runner hosted on its own goroutine, the paper's deployment model of
// the diagnostic job as an add-on module on each host. sim.Engine still
// walks the global communication schedule on the coordinator; each node's
// runner is replaced by a host that forwards the engine's calls to the node
// goroutine and waits for the reply. A concurrent run is therefore the
// lock-step run, event for event, node 1's causal stream and membership view
// changes included.
//
// Each node goroutine confines its runner and protocol instance (share
// memory by communicating). The engine applies bus deliveries on the
// coordinator and hands each controller to its node goroutine with every
// call, so the mailbox rendezvous orders every access. Jobs that share a
// schedule position, and the slot observers of one slot, run one at a time
// in the engine's order.
package cluster

import (
	"errors"
	"sync"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// errClosed is returned by operations racing a concurrent Close.
var errClosed = errors.New("cluster: already closed")

// callKind selects the runner method a call forwards.
type callKind uint8

const (
	callRun callKind = iota
	callSlot
	callSnapshot
)

// call is one engine call forwarded to a node goroutine.
type call struct {
	kind        callKind
	round, slot int
	ctrl        *tdma.Controller
}

// reply is the node goroutine's answer to a call.
type reply struct {
	payload []byte
	err     error
}

// host stands in for one node's runner inside the engine: its methods run on
// the coordinator, send the call to the node goroutine and wait for the
// reply. The two optional calls are forwarded only when the hosted runner
// implements them, so a runner without them costs no rendezvous.
type host struct {
	runner sim.Runner
	slot   sim.SlotObserver  // nil unless runner observes slots
	snap   sim.SnapshotTaker // nil unless runner takes snapshots
	inbox  chan call
	reply  chan reply
	quit   <-chan struct{}
	done   chan struct{}
}

var _ interface {
	sim.Runner
	sim.SlotObserver
	sim.SnapshotTaker
} = (*host)(nil)

// loop is the node goroutine. The mailbox receive and the reply send are
// select-guarded by the cluster-wide quit channel, so a node never deadlocks
// against a coordinator that stopped listening (the channel-discipline lint
// rule enforces this). quit is ready only after Close.
func (h *host) loop() {
	defer close(h.done)
	for {
		var c call
		select {
		case c = <-h.inbox:
		case <-h.quit:
			return
		}
		var rep reply
		switch c.kind {
		case callRun:
			rep.payload, rep.err = h.runner.Run(c.round, c.ctrl)
		case callSlot:
			rep.err = h.slot.OnSlotComplete(c.round, c.slot, c.ctrl)
		case callSnapshot:
			h.snap.CaptureSnapshot(c.round, c.ctrl)
		}
		select {
		case h.reply <- rep:
		case <-h.quit:
			return
		}
	}
}

// forward sends c to the node goroutine and waits for its reply, giving up
// cleanly if the cluster is shut down concurrently.
func (h *host) forward(c call) reply {
	select {
	case h.inbox <- c:
	case <-h.quit:
		return reply{err: errClosed}
	}
	select {
	case rep := <-h.reply:
		return rep
	case <-h.quit:
		return reply{err: errClosed}
	}
}

// Run implements sim.Runner on the node goroutine.
func (h *host) Run(round int, ctrl *tdma.Controller) ([]byte, error) {
	rep := h.forward(call{kind: callRun, round: round, ctrl: ctrl})
	return rep.payload, rep.err
}

// OnSlotComplete implements sim.SlotObserver on the node goroutine.
func (h *host) OnSlotComplete(round, slot int, ctrl *tdma.Controller) error {
	if h.slot == nil {
		return nil
	}
	return h.forward(call{kind: callSlot, round: round, slot: slot, ctrl: ctrl}).err
}

// CaptureSnapshot implements sim.SnapshotTaker; a racing Close shows at Run.
func (h *host) CaptureSnapshot(round int, ctrl *tdma.Controller) {
	if h.snap != nil {
		h.forward(call{kind: callSnapshot, round: round, ctrl: ctrl})
	}
}

// Cluster is the concurrent protocol cluster.
type Cluster struct {
	eng     *sim.Engine
	hosts   []*host       // 1-based
	quit    chan struct{} // closed once by Close; every channel op selects on it
	stopped bool
	mu      sync.Mutex
}

// Host starts one goroutine per node of an engine the caller wired, which
// from then on runs only through the returned cluster; Close stops them. The
// hosted runners may be inspected between RunRound calls: the mailbox
// rendezvous establishes the necessary happens-before edges.
func Host(eng *sim.Engine) *Cluster {
	c := &Cluster{
		eng:   eng,
		hosts: make([]*host, eng.Schedule().N()+1),
		quit:  make(chan struct{}),
	}
	eng.WrapRunners(func(id tdma.NodeID, r sim.Runner) sim.Runner {
		h := &host{
			runner: r,
			inbox:  make(chan call),
			reply:  make(chan reply),
			quit:   c.quit,
			done:   make(chan struct{}),
		}
		h.slot, _ = r.(sim.SlotObserver)
		h.snap, _ = r.(sim.SnapshotTaker)
		c.hosts[id] = h
		go h.loop()
		return h
	})
	return c
}

// New hosts sim.NewDiagnosticCluster's engine.
func New(cfg sim.ClusterConfig) (*Cluster, error) {
	eng, _, err := sim.NewDiagnosticCluster(cfg)
	if err != nil {
		return nil, err
	}
	return Host(eng), nil
}

// NewMembershipCluster hosts sim.NewMembershipCluster's engine.
func NewMembershipCluster(cfg sim.ClusterConfig) (*Cluster, []*sim.MembershipRunner, error) {
	eng, runners, err := sim.NewMembershipCluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	return Host(eng), runners, nil
}

// NewLowLatCluster hosts sim.NewLowLatCluster's engine.
func NewLowLatCluster(cfg sim.ClusterConfig) (*Cluster, []*sim.LowLatRunner, error) {
	eng, runners, err := sim.NewLowLatCluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	return Host(eng), runners, nil
}

// AddDisturbance appends a disturbance to the bus.
func (c *Cluster) AddDisturbance(d tdma.Disturbance) { c.eng.Bus().AddDisturbance(d) }

// Round returns the next round to execute.
func (c *Cluster) Round() int { return c.eng.Round() }

// Schedule returns the cluster's global communication schedule.
func (c *Cluster) Schedule() *tdma.Schedule { return c.eng.Schedule() }

// Last returns node id's most recent diagnostic output: a DiagRunner's, or
// the one underlying a MembershipRunner's; zero for other runners. The
// runner is read on the caller's goroutine, ordered after the node
// goroutine's writes by the last rendezvous.
func (c *Cluster) Last(id int) core.RoundOutput {
	if id >= 1 && id < len(c.hosts) && c.hosts[id] != nil {
		switch r := c.hosts[id].runner.(type) {
		case *sim.DiagRunner:
			return r.Last()
		case *sim.MembershipRunner:
			return r.Last().Diag
		}
	}
	return core.RoundOutput{}
}

// RunRound drives the cluster through one TDMA round of the engine.
func (c *Cluster) RunRound() error {
	select {
	case <-c.quit:
		return errClosed
	default:
	}
	k := c.eng.Round()
	if err := c.eng.RunRound(); err != nil {
		return err
	}
	if invariant.Enabled {
		c.checkRoundAgreement(k)
	}
	return nil
}

// checkRoundAgreement asserts the paper's consistent-diagnosis property at
// the round boundary (ttdiag_invariants builds only): every node goroutine
// that produced a health vector this round must agree on both the diagnosed
// round and the vector itself, bit for bit.
func (c *Cluster) checkRoundAgreement(round int) {
	n := len(c.hosts) - 1
	var ref core.RoundOutput
	refID := 0
	for id := 1; id <= n; id++ {
		out := c.Last(id)
		if out.ConsHV.Known == 0 || out.Round != round {
			continue
		}
		if refID == 0 {
			ref, refID = out, id
			continue
		}
		invariant.Checkf(out.DiagnosedRound == ref.DiagnosedRound,
			"cluster: round %d: nodes %d and %d diagnose different rounds (%d vs %d)",
			round, refID, id, ref.DiagnosedRound, out.DiagnosedRound)
		if out.ConsHV != ref.ConsHV {
			invariant.Checkf(false, "cluster: round %d: health vectors diverge across goroutines: node %d says %s, node %d says %s",
				round, refID, ref.ConsHV.String(n), id, out.ConsHV.String(n))
		}
	}
}

// RunRounds drives the cluster through the given number of rounds.
func (c *Cluster) RunRounds(count int) error {
	for i := 0; i < count; i++ {
		if err := c.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops all node goroutines and waits for them to exit. It is
// idempotent: quit is closed exactly once, and every goroutine, idle or
// mid-reply, observes it and returns.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	close(c.quit)
	for _, h := range c.hosts {
		if h != nil {
			<-h.done
		}
	}
}
