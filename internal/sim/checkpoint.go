package sim

import (
	"fmt"

	"ttdiag/internal/core"
	"ttdiag/internal/tdma"
)

// ClusterCheckpoint is a reusable in-memory checkpoint of a DiagCluster
// mid-run: the engine's round cursor and ground-truth record, every node's
// protocol state and controller state (in-flight interface copies, staged
// outboxes, isolation marks, collision history). Capture and Restore are
// flat state copies built on core.Protocol.CopyFrom /
// tdma.Controller.CopyStateFrom — no encoding, no steady-state allocations once the checkpoint's buffers
// have warmed — which is what lets the splitting engine clone runs at every
// level crossing (the JSON Snapshot path would dominate its hot loop).
//
// Capture must happen at a round boundary (between RunRound calls), which is
// the only instant the engine exposes anyway. Scenario state outside the
// cluster — bus disturbances, OnOutput observers — is deliberately
// not captured: disturbances encode the fault process, and a splitting clone
// re-runs the suffix under a *different* fault key, so the caller owns them.
//
// A checkpoint is immutable between Capture calls, so one checkpoint may be
// restored into many clusters concurrently (the splitting workers share the
// level-entry checkpoints read-only); Capture itself must not race with
// those restores.
type ClusterCheckpoint struct {
	n      int
	round  int
	truth  []tdma.OutcomeClass
	protos []*core.Protocol   // 1-based; entry 0 nil
	ctrls  []*tdma.Controller // 1-based; entry 0 nil
}

// NewClusterCheckpoint builds an empty checkpoint shaped for c. The
// checkpoint allocates its twin protocol and controller instances once,
// here; Capture then reuses them for every capture.
func NewClusterCheckpoint(c *DiagCluster) (*ClusterCheckpoint, error) {
	n := c.cfg.N
	ck := &ClusterCheckpoint{
		n:      n,
		protos: make([]*core.Protocol, n+1),
		ctrls:  make([]*tdma.Controller, n+1),
	}
	for id := 1; id <= n; id++ {
		p, err := core.NewProtocol(c.cfg.nodeConfig(id))
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint node %d: %w", id, err)
		}
		ck.protos[id] = p
		ctrl, err := tdma.NewController(tdmaID(id), n)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint node %d: %w", id, err)
		}
		ck.ctrls[id] = ctrl
	}
	return ck, nil
}

// Round returns the engine round the last Capture recorded.
func (ck *ClusterCheckpoint) Round() int { return ck.round }

// Capture records c's current state into the checkpoint, overwriting any
// previous capture. c must have the shape the checkpoint was built for.
func (ck *ClusterCheckpoint) Capture(c *DiagCluster) error {
	if c.cfg.N != ck.n {
		return fmt.Errorf("sim: checkpoint shaped for N=%d cannot capture N=%d", ck.n, c.cfg.N)
	}
	e := c.Eng
	ck.round = e.round
	ck.truth = append(ck.truth[:0], e.truth...)
	for id := 1; id <= ck.n; id++ {
		if err := ck.protos[id].CopyFrom(c.Runners[id].proto); err != nil {
			return fmt.Errorf("sim: checkpoint node %d: %w", id, err)
		}
		if err := ck.ctrls[id].CopyStateFrom(e.nodes[id].ctrl); err != nil {
			return fmt.Errorf("sim: checkpoint node %d: %w", id, err)
		}
	}
	return nil
}

// Restore rewinds c to the captured state: the next RunRound re-executes the
// round that followed the capture. The runners' per-round caches are invalidated so the first restored round
// rebuilds them. Bus disturbances are left as they are — install the clone's
// fault process before or after, as the scenario requires.
func (ck *ClusterCheckpoint) Restore(c *DiagCluster) error {
	if c.cfg.N != ck.n {
		return fmt.Errorf("sim: checkpoint shaped for N=%d cannot restore N=%d", ck.n, c.cfg.N)
	}
	e := c.Eng
	e.round = ck.round
	e.truth = append(e.truth[:0], ck.truth...)
	for id := 1; id <= ck.n; id++ {
		r := c.Runners[id]
		if err := r.proto.CopyFrom(ck.protos[id]); err != nil {
			return fmt.Errorf("sim: restore node %d: %w", id, err)
		}
		if err := e.nodes[id].ctrl.CopyStateFrom(ck.ctrls[id]); err != nil {
			return fmt.Errorf("sim: restore node %d: %w", id, err)
		}
		r.last = core.RoundOutput{}
		r.haveSnap = false
		r.act.reset()
	}
	return nil
}
