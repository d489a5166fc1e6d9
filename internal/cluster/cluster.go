// Package cluster is the concurrent runtime: one goroutine per node, a
// channel-based TDMA bus, and a virtual-time coordinator. It demonstrates
// the paper's deployment model — the diagnostic job as an add-on
// application-level module on each host — while remaining deterministic:
// the coordinator walks the global communication schedule and synchronises
// with the node goroutines at slot and job boundaries, so a run produces
// bit-identical protocol state to the lock-step engine (asserted by the
// equivalence tests).
//
// Each node goroutine confines its communication controller and protocol
// instance; all interaction happens by message passing (share memory by
// communicating). Deliveries of one slot are fanned out to all node
// goroutines concurrently and joined before the next schedule event.
package cluster

import (
	"fmt"
	"sync"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// Config mirrors sim.ClusterConfig for the concurrent runtime.
type Config = sim.ClusterConfig

// command messages sent from the coordinator to a node goroutine.
type (
	deliverCmd struct {
		sender    tdma.NodeID
		round     int
		slot      int
		delivery  tdma.Delivery
		collision bool // meaningful only at the sender itself
		reply     chan<- error
	}
	snapshotCmd struct {
		round int
		done  chan<- struct{}
	}
	jobCmd struct {
		round int
		reply chan<- jobReply
	}
)

// errClosed is returned by operations racing a concurrent Close.
var errClosed = fmt.Errorf("cluster: already closed")

type jobReply struct {
	payload []byte
	output  core.RoundOutput
	err     error
}

// nodeProc is one node's goroutine plus its mailbox. The runner, controller
// and all protocol state are confined to the goroutine; the coordinator only
// talks to it through the mailbox (share memory by communicating).
type nodeProc struct {
	id     tdma.NodeID
	l      int
	inbox  chan any
	quit   <-chan struct{}
	done   chan struct{}
	runner sim.Runner
	ctrl   *tdma.Controller
}

// loop is the node goroutine. Every channel operation — the mailbox receive
// and all reply sends — is select-guarded by the cluster-wide quit channel,
// so a node can never deadlock against a coordinator that stopped listening
// (the channel-discipline lint rule enforces this shape). quit only becomes
// ready at Close, so the selects are deterministic during a run.
func (np *nodeProc) loop() {
	defer close(np.done)
	for {
		var msg any
		select {
		case msg = <-np.inbox:
		case <-np.quit:
			return
		}
		switch m := msg.(type) {
		case deliverCmd:
			if m.sender == np.id {
				np.ctrl.RecordCollision(m.round, m.collision)
				if m.collision {
					np.ctrl.ApplyDelivery(m.sender, tdma.Delivery{})
				} else {
					np.ctrl.ApplyDelivery(m.sender, m.delivery)
				}
			} else {
				np.ctrl.ApplyDelivery(m.sender, m.delivery)
			}
			var err error
			if so, ok := np.runner.(sim.SlotObserver); ok {
				err = so.OnSlotComplete(m.round, m.slot, np.ctrl)
			}
			select {
			case m.reply <- err:
			case <-np.quit:
				return
			}
		case snapshotCmd:
			if st, ok := np.runner.(sim.SnapshotTaker); ok {
				st.CaptureSnapshot(m.round, np.ctrl)
			}
			select {
			case m.done <- struct{}{}:
			case <-np.quit:
				return
			}
		case jobCmd:
			payload, err := np.runner.Run(m.round, np.ctrl)
			rep := jobReply{payload: payload, err: err}
			if dr, ok := np.runner.(*sim.DiagRunner); ok {
				rep.output = dr.Last()
			}
			select {
			case m.reply <- rep:
			case <-np.quit:
				return
			}
		}
	}
}

// Cluster is the concurrent protocol cluster.
type Cluster struct {
	cfg   Config
	sched *tdma.Schedule
	dist  tdma.Disturbances
	nodes []*nodeProc // 1-based
	// outbox mirrors each node's staged interface value at the coordinator
	// (the value its controller would transmit next).
	outbox [][]byte
	last   []core.RoundOutput
	round  int
	sink   trace.Sink
	// quit is closed exactly once by Close; every mailbox send and reply
	// receive selects on it, so shutdown can never deadlock mid-round.
	quit    chan struct{}
	stopped bool
	mu      sync.Mutex
}

// New builds and starts the cluster; Close must be called to stop the node
// goroutines.
func New(cfg Config) (*Cluster, error) {
	cfg, err := Normalize(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := newSchedule(cfg)
	if err != nil {
		return nil, err
	}
	sink := cfg.Sink
	if sink == nil {
		sink = trace.Discard{}
	}
	c := &Cluster{
		cfg:    cfg,
		sched:  sched,
		nodes:  make([]*nodeProc, cfg.N+1),
		outbox: make([][]byte, cfg.N+1),
		last:   make([]core.RoundOutput, cfg.N+1),
		sink:   sink,
		quit:   make(chan struct{}),
	}
	initial := core.NewSyndrome(cfg.N, core.Healthy).Encode()
	for id := 1; id <= cfg.N; id++ {
		runner, err := sim.NewDiagRunner(NodeConfig(cfg, id))
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := c.startNode(id, cfg.Ls[id-1], runner, initial); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// NewWithRunners builds a concurrent cluster over caller-supplied runners
// (one per node, 1-based positions in ls). The caller keeps the typed runner
// references; their state may be inspected between RunRound calls (the
// mailbox rendezvous establishes the necessary happens-before edges).
func NewWithRunners(cfg Config, runners []sim.Runner, ls []int) (*Cluster, error) {
	cfg, err := Normalize(cfg)
	if err != nil {
		return nil, err
	}
	if len(runners) != cfg.N+1 {
		return nil, fmt.Errorf("cluster: runners has %d entries, want %d (1-based)", len(runners), cfg.N+1)
	}
	if len(ls) != cfg.N {
		return nil, fmt.Errorf("cluster: ls has %d entries, want %d", len(ls), cfg.N)
	}
	sched, err := newSchedule(cfg)
	if err != nil {
		return nil, err
	}
	sink := cfg.Sink
	if sink == nil {
		sink = trace.Discard{}
	}
	c := &Cluster{
		cfg:    cfg,
		sched:  sched,
		nodes:  make([]*nodeProc, cfg.N+1),
		outbox: make([][]byte, cfg.N+1),
		last:   make([]core.RoundOutput, cfg.N+1),
		sink:   sink,
		quit:   make(chan struct{}),
	}
	initial := core.NewSyndrome(cfg.N, core.Healthy).Encode()
	for id := 1; id <= cfg.N; id++ {
		if runners[id] == nil {
			c.Close()
			return nil, fmt.Errorf("cluster: runner %d is nil", id)
		}
		if ls[id-1] < 0 || ls[id-1] > cfg.N-1 {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d position %d out of range", id, ls[id-1])
		}
		if err := c.startNode(id, ls[id-1], runners[id], initial); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// NewMembershipCluster builds a concurrent cluster of membership services
// and returns the typed runners for view inspection.
func NewMembershipCluster(cfg Config) (*Cluster, []*sim.MembershipRunner, error) {
	cfg, err := Normalize(cfg)
	if err != nil {
		return nil, nil, err
	}
	runners := make([]sim.Runner, cfg.N+1)
	typed := make([]*sim.MembershipRunner, cfg.N+1)
	for id := 1; id <= cfg.N; id++ {
		nodeCfg := NodeConfig(cfg, id)
		nodeCfg.Mode = core.ModeMembership
		r, err := sim.NewMembershipRunner(nodeCfg)
		if err != nil {
			return nil, nil, err
		}
		runners[id], typed[id] = r, r
	}
	cl, err := NewWithRunners(cfg, runners, cfg.Ls)
	if err != nil {
		return nil, nil, err
	}
	return cl, typed, nil
}

// NewLowLatCluster builds a concurrent cluster of the constrained
// system-level variant (per-slot analysis inside every node goroutine).
func NewLowLatCluster(cfg Config) (*Cluster, []*sim.LowLatRunner, error) {
	cfg, err := Normalize(cfg)
	if err != nil {
		return nil, nil, err
	}
	runners := make([]sim.Runner, cfg.N+1)
	typed := make([]*sim.LowLatRunner, cfg.N+1)
	ls := make([]int, cfg.N)
	for id := 1; id <= cfg.N; id++ {
		r, err := sim.NewLowLatRunner(lowlatConfig(cfg, id))
		if err != nil {
			return nil, nil, err
		}
		runners[id], typed[id] = r, r
		ls[id-1] = id - 1 // constrained: stage right before the own slot
	}
	cl, err := NewWithRunners(cfg, runners, ls)
	if err != nil {
		return nil, nil, err
	}
	return cl, typed, nil
}

func lowlatConfig(cfg Config, id int) lowlat.Config {
	return lowlat.Config{N: cfg.N, ID: id, Mode: cfg.Mode, PR: cfg.PR}
}

// newSchedule builds the TDMA schedule (uniform or per-slot) for the
// concurrent runtime, mirroring the lock-step engine's rules.
func newSchedule(cfg Config) (*tdma.Schedule, error) {
	if len(cfg.SlotLens) > 0 {
		if len(cfg.SlotLens) != cfg.N {
			return nil, fmt.Errorf("cluster: SlotLens has %d entries, want %d", len(cfg.SlotLens), cfg.N)
		}
		return tdma.NewCustomSchedule(cfg.SlotLens)
	}
	return tdma.NewSchedule(cfg.N, cfg.RoundLen)
}

// startNode spawns one node goroutine.
func (c *Cluster) startNode(id, l int, runner sim.Runner, initial []byte) error {
	ctrl, err := tdma.NewController(tdma.NodeID(id), c.cfg.N)
	if err != nil {
		return err
	}
	np := &nodeProc{
		id:     tdma.NodeID(id),
		l:      l,
		inbox:  make(chan any),
		quit:   c.quit,
		done:   make(chan struct{}),
		runner: runner,
		ctrl:   ctrl,
	}
	c.nodes[id] = np
	c.outbox[id] = initial
	go np.loop()
	return nil
}

// Normalize applies the same defaulting rules as the lock-step engine so
// that both runtimes accept identical configurations.
func Normalize(cfg Config) (Config, error) {
	return sim.NormalizeConfig(cfg)
}

// NodeConfig derives node id's protocol configuration, identical to the
// lock-step engine's derivation.
func NodeConfig(cfg Config, id int) core.Config {
	return sim.NodeConfig(cfg, id)
}

// AddDisturbance appends a disturbance to the virtual bus.
func (c *Cluster) AddDisturbance(d tdma.Disturbance) { c.dist = append(c.dist, d) }

// Round returns the next round to execute.
func (c *Cluster) Round() int { return c.round }

// Schedule returns the cluster's global communication schedule.
func (c *Cluster) Schedule() *tdma.Schedule { return c.sched }

// Last returns the most recent round output of node id.
func (c *Cluster) Last(id int) core.RoundOutput {
	if id < 1 || id >= len(c.last) {
		return core.RoundOutput{}
	}
	return c.last[id]
}

// post delivers one command to node id's mailbox, giving up cleanly if the
// cluster is shut down concurrently.
func (c *Cluster) post(id int, msg any) error {
	select {
	case c.nodes[id].inbox <- msg:
		return nil
	case <-c.quit:
		return errClosed
	}
}

// RunRound drives the cluster through one TDMA round.
func (c *Cluster) RunRound() error {
	select {
	case <-c.quit:
		return errClosed
	default:
	}
	k := c.round
	n := c.cfg.N
	// Round-start snapshots for dynamically scheduled / snapshotting nodes.
	snapDone := make(chan struct{}, n)
	for id := 1; id <= n; id++ {
		if err := c.post(id, snapshotCmd{round: k, done: snapDone}); err != nil {
			return err
		}
	}
	for id := 1; id <= n; id++ {
		select {
		case <-snapDone:
		case <-c.quit:
			return errClosed
		}
	}
	for pos := 0; pos <= n; pos++ {
		// Node jobs scheduled at this position (concurrently, then join).
		replies := make(map[int]chan jobReply)
		for id := 1; id <= n; id++ {
			if c.nodes[id].l != pos {
				continue
			}
			ch := make(chan jobReply, 1)
			replies[id] = ch
			if err := c.post(id, jobCmd{round: k, reply: ch}); err != nil {
				return err
			}
		}
		for id := 1; id <= n; id++ {
			ch, ok := replies[id]
			if !ok {
				continue
			}
			var rep jobReply
			select {
			case rep = <-ch:
			case <-c.quit:
				return errClosed
			}
			if rep.err != nil {
				return fmt.Errorf("cluster: round %d node %d: %w", k, id, rep.err)
			}
			if rep.payload != nil {
				c.outbox[id] = rep.payload
			}
			c.last[id] = rep.output
			c.sink.Record(trace.Event{
				At: c.sched.RoundStart(k), Round: k, Kind: trace.KindJobRun, Node: id,
			})
		}
		if pos == n {
			break
		}
		if err := c.transmit(k, pos+1); err != nil {
			return err
		}
	}
	if invariant.Enabled {
		c.checkRoundAgreement(k)
	}
	c.round++
	return nil
}

// checkRoundAgreement asserts the paper's consistent-diagnosis property at
// the round boundary (ttdiag_invariants builds only): every node goroutine
// that produced a health vector this round must agree on both the diagnosed
// round and the vector itself, bit for bit.
func (c *Cluster) checkRoundAgreement(round int) {
	var ref core.RoundOutput
	refID := 0
	for id := 1; id <= c.cfg.N; id++ {
		out := c.last[id]
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
				round, refID, ref.ConsHV.String(c.cfg.N), id, out.ConsHV.String(c.cfg.N))
		}
	}
}

// transmit broadcasts one slot: the disturbance chain decides each
// receiver's delivery, the deliveries are fanned out to all node goroutines
// concurrently and joined.
func (c *Cluster) transmit(round, slot int) error {
	sender := c.sched.SlotOwner(slot)
	start, end := c.sched.SlotWindow(round, slot)
	tx := tdma.Transmission{
		Sender:  sender,
		Round:   round,
		Slot:    slot,
		Start:   start,
		End:     end,
		Payload: append([]byte(nil), c.outbox[sender]...),
	}
	collision := c.dist.SenderCollision(&tx, false)
	reply := make(chan error, c.cfg.N)
	for rcv := 1; rcv <= c.cfg.N; rcv++ {
		d := tdma.Delivery{Valid: true, Payload: tx.Payload}
		d = c.dist.Deliver(&tx, tdma.NodeID(rcv), d)
		if !d.Valid {
			d.Payload = nil
		}
		if err := c.post(rcv, deliverCmd{
			sender:    sender,
			round:     round,
			slot:      slot,
			delivery:  d,
			collision: collision,
			reply:     reply,
		}); err != nil {
			return err
		}
	}
	var firstErr error
	for rcv := 1; rcv <= c.cfg.N; rcv++ {
		var err error
		select {
		case err = <-reply:
		case <-c.quit:
			return errClosed
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return fmt.Errorf("cluster: round %d slot %d: %w", round, slot, firstErr)
	}
	c.sink.Record(trace.Event{At: start, Round: round, Kind: trace.KindTransmit, Node: int(sender)})
	return nil
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
// idempotent: the quit channel is closed exactly once and every goroutine —
// whether idle in its mailbox receive or mid-reply — observes it and
// returns.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	close(c.quit)
	for _, np := range c.nodes {
		if np == nil {
			continue
		}
		<-np.done
	}
}
