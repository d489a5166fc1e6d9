package sim

import (
	"fmt"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
)

// LaneCheckpoint is one lane of a diagnostic BatchDiagCluster at a round
// boundary: every node's core.LaneState plus the lane's bus-side state —
// the staged outbox words, the shared receiver rows and their presence
// bits, the per-observer ignore, own-collision and blind bits, and the
// senders' recent collision verdicts. CaptureLane fills it from lane r of
// one gang and RestoreLane writes it into any lane r′ of another gang of
// the same configuration, at any round: the collision verdicts are kept
// relative to the capture round and re-anchored to the destination's. It
// is the lane-packed counterpart of ClusterCheckpoint: about 2 KB at N=4
// instead of a whole cluster.
//
// Ground truth, collectors, horizons, disturbances and telemetry stay with
// the gang: a checkpoint holds run state only, and the caller owns the
// fault process of the lane it restores (the splitting estimator re-keys a
// per-lane keyed hash). A checkpoint is immutable between captures, so one
// may be restored into many gangs concurrently.
type LaneCheckpoint struct {
	n     int
	nodes []core.LaneState // by node id-1
	// Lane segments, right-aligned and 1-based by node: staged[s] is
	// sender s's outbox, rows[s] the Op plane of its last delivered word;
	// ign, ownClear and blind are the per-observer masks of
	// BatchDiagCluster. present is the lane's presentB segment.
	staged, rows, ign, ownClear, blind []uint64
	present                            uint64
	// coll[s] bit a-1 is set when sender s's own transmission collided a
	// rounds before the capture, for the a = 1..lag the node's jobs still
	// read (older verdicts are never read again).
	coll []uint64
	// ttdiag_invariants builds only: tainted carries the lane out of the
	// Theorem 1 agreement check, as it was at the capture, and faults[a-1]
	// holds the lane's benign, asymmetric and malicious senders of a
	// rounds before it (nil otherwise).
	tainted bool
	faults  [][3]uint64
}

// NewLaneCheckpoint allocates an empty lane checkpoint shaped for c.
func (c *BatchDiagCluster) NewLaneCheckpoint() *LaneCheckpoint {
	n := c.n
	w := n + 1
	words := make([]uint64, 6*w)
	var faults [][3]uint64
	if invariant.Enabled {
		faults = make([][3]uint64, invWindow)
	}
	return &LaneCheckpoint{
		faults:   faults,
		n:        n,
		nodes:    core.NewLaneStates(n, n),
		staged:   words[:w:w],
		rows:     words[w : 2*w : 2*w],
		ign:      words[2*w : 3*w : 3*w],
		ownClear: words[3*w : 4*w : 4*w],
		blind:    words[4*w : 5*w : 5*w],
		coll:     words[5*w:],
	}
}

// checkLane validates a lane index and a checkpoint's shape.
func (c *BatchDiagCluster) checkLane(lane int, ck *LaneCheckpoint) error {
	if c.views != nil {
		return fmt.Errorf("sim: lane checkpoints cover diagnostic clusters only")
	}
	if ck.n != c.n {
		return fmt.Errorf("sim: lane checkpoint shaped for N=%d, cluster has N=%d", ck.n, c.n)
	}
	if lane < 0 || lane >= c.lanes {
		return fmt.Errorf("sim: lane %d outside 0..%d", lane, c.lanes-1)
	}
	return nil
}

// CaptureLane records lane `lane`'s state at the current round boundary
// into ck, overwriting any previous capture. Zero allocations.
func (c *BatchDiagCluster) CaptureLane(lane int, ck *LaneCheckpoint) error {
	if err := c.checkLane(lane, ck); err != nil {
		return err
	}
	n := c.n
	sh := uint(lane * n)
	seg := func(w uint64) uint64 { return (w >> sh) & c.laneAll }
	for id := 1; id <= n; id++ {
		if err := c.protos[id].CaptureLane(lane, &ck.nodes[id-1]); err != nil {
			return err
		}
		ck.staged[id] = seg(c.staged[id])
		ck.rows[id] = seg(c.rows[id].Op)
		ck.ign[id] = seg(c.ign[id])
		ck.ownClear[id] = seg(c.ownClear[id])
		ck.blind[id] = seg(c.blind[id])
		var coll uint64
		for a := 1; a <= c.lag[id] && a <= c.round; a++ {
			d := c.round - a
			i := id*collRing + d%collRing
			if c.collSeen[i] && c.collRound[i] == d && c.collMask[i]>>uint(lane)&1 != 0 {
				coll |= 1 << uint(a-1)
			}
		}
		ck.coll[id] = coll
	}
	ck.present = seg(c.presentB)
	if invariant.Enabled {
		ck.tainted = c.invTainted>>uint(lane)&1 != 0
		for a := range ck.faults {
			for i := range ck.faults[a] {
				ck.faults[a][i] = 0
				if a < c.round {
					ck.faults[a][i] = seg(c.invFaults[(c.round-1-a)%invWindow][i])
				}
			}
		}
	}
	return nil
}

// RestoreLane overwrites lane `lane` with the state ck captured; the lane
// then runs on exactly as the captured lane would have from its capture
// round. The destination gang must be warm, at least as many rounds past
// its start as the diagnosis lag (an earlier restore is an error), so that
// the collision verdicts a job still reads land on rounds the gang has;
// the lane's verdicts of older rounds are left stale, as no job reads them. The lane's disturbances and
// horizon are left as they are, and the lane asks its chain afresh which
// slots it leaves quiet (see AddLaneDisturbance). The HealthyRows hint is recomputed from
// the shared rows. Under ttdiag_invariants the restored lane is
// re-captured and must equal ck. Zero allocations.
func (c *BatchDiagCluster) RestoreLane(lane int, ck *LaneCheckpoint) error {
	if err := c.checkLane(lane, ck); err != nil {
		return err
	}
	n := c.n
	for id := 1; id <= n; id++ {
		if c.round < c.lag[id] {
			return fmt.Errorf("sim: lane restore at round %d, before node %d's diagnosis lag of %d rounds", c.round, id, c.lag[id])
		}
	}
	sh := uint(lane * n)
	keep := ^(c.laneAll << sh)
	put := func(w, v uint64) uint64 { return w&keep | v<<sh }
	laneBit := uint64(1) << uint(lane)
	c.healthyRows = 0
	for id := 1; id <= n; id++ {
		if err := c.protos[id].RestoreLane(lane, &ck.nodes[id-1]); err != nil {
			return err
		}
		c.staged[id] = put(c.staged[id], ck.staged[id])
		c.rows[id].Op = put(c.rows[id].Op, ck.rows[id])
		if c.rows[id].Op&c.allB == c.allB {
			c.healthyRows |= 1 << uint(id-1)
		}
		c.ign[id] = put(c.ign[id], ck.ign[id])
		c.ownClear[id] = put(c.ownClear[id], ck.ownClear[id])
		c.blind[id] = put(c.blind[id], ck.blind[id])
		if ck.blind[id] != 0 {
			// Only gangs with blinded lanes refresh the blind masks.
			c.blindLanes |= laneBit
		}
		for a := 1; a <= c.lag[id] && a <= c.round; a++ {
			d := c.round - a
			i := id*collRing + d%collRing
			if !c.collSeen[i] || c.collRound[i] != d {
				c.collRound[i], c.collMask[i], c.collSeen[i] = d, 0, true
			}
			c.collMask[i] &^= laneBit
			if ck.coll[id]>>uint(a-1)&1 != 0 {
				c.collMask[i] |= laneBit
			}
		}
	}
	c.presentB = put(c.presentB, ck.present)
	c.resetWake(lane)
	if invariant.Enabled {
		c.invTainted &^= laneBit
		if ck.tainted {
			c.invTainted |= laneBit
		}
		for a := range ck.faults {
			if a < c.round {
				f := &c.invFaults[(c.round-1-a)%invWindow]
				for i := range f {
					f[i] = put(f[i], ck.faults[a][i])
				}
			}
		}
		c.checkRestoredLane(lane, ck)
	}
	return nil
}

// checkRestoredLane re-captures a lane RestoreLane just wrote and requires
// it to equal the checkpoint; collision verdicts and fault history older
// than the gang's first round have nowhere to land and are not compared. The node states
// were compared by core.BatchProtocol.RestoreLane.
func (c *BatchDiagCluster) checkRestoredLane(lane int, want *LaneCheckpoint) {
	if c.invLane == nil {
		c.invLane = c.NewLaneCheckpoint()
	}
	got := c.invLane
	if err := c.CaptureLane(lane, got); err != nil {
		invariant.Checkf(false, "sim: re-capturing restored lane %d: %v", lane, err)
		return
	}
	window := uint64(1)<<uint(min(c.round, collRing)) - 1 // ages the gang has
	same := got.present == want.present && got.tainted == want.tainted
	for a := 0; a < len(want.faults) && a < c.round && same; a++ {
		same = got.faults[a] == want.faults[a]
	}
	for id := 1; id <= c.n && same; id++ {
		same = got.staged[id] == want.staged[id] && got.rows[id] == want.rows[id] &&
			got.ign[id] == want.ign[id] && got.ownClear[id] == want.ownClear[id] &&
			got.blind[id] == want.blind[id] && got.coll[id] == want.coll[id]&window
	}
	if !same {
		invariant.Checkf(false, "sim: round %d: restored lane %d does not re-capture to the checkpoint it was restored from", c.round, lane)
	}
}
