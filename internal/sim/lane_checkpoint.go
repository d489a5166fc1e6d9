package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"ttdiag/internal/core"
	"ttdiag/internal/invariant"
)

// A lane record is one lane of a diagnostic BatchDiagCluster at a round
// boundary, LaneRecordLen() words with no pointers: every node's
// core lane record (node id's at (id-1)·core.LaneRecordLen(N)), then the
// lane's bus-side state. CaptureLaneRecord fills one from lane r of one
// gang and RestoreLanes writes records into any lanes of another gang of
// the same configuration, at any round: the collision verdicts are kept
// relative to the capture round and re-anchored to the destination's.
// Being flat, records can sit side by side in one slab the garbage
// collector never scans; at N=4 a record is about 1.2 KB.
//
// The bus part starts with lane-packed words stored as their lane segment,
// right-aligned and indexed by node: the staged outbox words, the Op plane
// of each sender's last delivered word, the per-observer ignore,
// own-collision and blind masks of BatchDiagCluster (busStaged..busBlind,
// n words each), the presence segment, and in ttdiag_invariants builds the
// lane's benign, asymmetric and malicious senders of the invWindow rounds
// before the capture. Per-lane words follow: coll[id-1] bit a-1 is set
// when sender id's own transmission collided a rounds before the capture,
// for the a = 1..lag the node's jobs still read (older verdicts are never
// read again), and in ttdiag_invariants builds one word carries the lane
// out of the Theorem 1 agreement check, as it was at the capture.
//
// Ground truth, collectors, horizons, disturbances and telemetry stay with
// the gang: a record holds run state only, and the caller owns the fault
// process of the lane it restores (the splitting estimator re-keys a
// per-lane keyed hash). A record is immutable between captures, so one may
// be restored into many gangs concurrently.
const (
	busStaged = iota
	busRows
	busIgn
	busOwnClear
	busBlind
	busPresent // busPresent·n: the presence segment
)

// invFaultWords is the length of the fault history a lane record carries
// in ttdiag_invariants builds.
const invFaultWords = 3 * invWindow

// recBus is the word offset of a lane record's bus part.
func (c *BatchDiagCluster) recBus() int { return c.n * core.LaneRecordLen(c.n) }

// busPacked is the number of lane-packed words leading the bus part.
func (c *BatchDiagCluster) busPacked() int {
	if invariant.Enabled {
		return busPresent*c.n + 1 + invFaultWords
	}
	return busPresent*c.n + 1
}

// LaneRecordLen returns the length in words of the cluster's lane records.
func (c *BatchDiagCluster) LaneRecordLen() int {
	if invariant.Enabled {
		return c.recBus() + c.busPacked() + c.n + 1
	}
	return c.recBus() + c.busPacked() + c.n
}

// LaneCheckpoint is one lane record in a buffer of its own: the
// single-lane form of CaptureLaneRecord and RestoreLanes. It is the
// lane-packed counterpart of ClusterCheckpoint.
type LaneCheckpoint struct {
	rec []uint64
}

// NewLaneCheckpoint allocates an empty lane checkpoint shaped for c.
func (c *BatchDiagCluster) NewLaneCheckpoint() *LaneCheckpoint {
	return &LaneCheckpoint{rec: make([]uint64, c.LaneRecordLen())}
}

// CaptureLane records lane `lane`'s state at the current round boundary
// into ck, overwriting any previous capture. Zero allocations.
func (c *BatchDiagCluster) CaptureLane(lane int, ck *LaneCheckpoint) error {
	return c.CaptureLaneRecord(lane, ck.rec)
}

// RestoreLane overwrites lane `lane` with the state ck captured; see
// RestoreLanes.
func (c *BatchDiagCluster) RestoreLane(lane int, ck *LaneCheckpoint) error {
	if lane < 0 || lane >= c.lanes {
		return fmt.Errorf("sim: lane %d outside 0..%d", lane, c.lanes-1)
	}
	recs := [1][]uint64{ck.rec}
	return c.RestoreLanes(1<<uint(lane), recs[:])
}

// checkLanes validates that lane records are supported and that the
// lanes of a capture or restore are live.
func (c *BatchDiagCluster) checkLanes(lanes uint64) error {
	if c.views != nil {
		return fmt.Errorf("sim: lane records cover diagnostic clusters only")
	}
	if live := uint64(1)<<uint(c.lanes) - 1; lanes&^live != 0 {
		return fmt.Errorf("sim: lanes %#x outside 0..%d", lanes, c.lanes-1)
	}
	return nil
}

// checkRecord validates a lane record's shape.
func (c *BatchDiagCluster) checkRecord(rec []uint64) error {
	if len(rec) != c.LaneRecordLen() {
		return fmt.Errorf("sim: lane record of %d words, an N=%d gang's hold %d", len(rec), c.n, c.LaneRecordLen())
	}
	return nil
}

// CaptureLaneRecord records lane `lane`'s state at the current round
// boundary into rec, a lane record of LaneRecordLen() words, overwriting
// it. Zero allocations.
func (c *BatchDiagCluster) CaptureLaneRecord(lane int, rec []uint64) error {
	if lane < 0 || lane >= c.lanes {
		return fmt.Errorf("sim: lane %d outside 0..%d", lane, c.lanes-1)
	}
	if err := c.checkLanes(1 << uint(lane)); err != nil {
		return err
	}
	if err := c.checkRecord(rec); err != nil {
		return err
	}
	n := c.n
	size := core.LaneRecordLen(n)
	for id := 1; id <= n; id++ {
		if err := c.protos[id].CaptureLane(lane, rec[(id-1)*size:id*size]); err != nil {
			return err
		}
	}
	sh := uint(lane * n)
	seg := func(w uint64) uint64 { return (w >> sh) & c.laneAll }
	bus := rec[c.recBus():]
	packed, perLane := bus[:c.busPacked()], bus[c.busPacked():]
	for id := 1; id <= n; id++ {
		packed[busStaged*n+id-1] = seg(c.staged[id])
		packed[busRows*n+id-1] = seg(c.rows[id].Op)
		packed[busIgn*n+id-1] = seg(c.ign[id])
		packed[busOwnClear*n+id-1] = seg(c.ownClear[id])
		packed[busBlind*n+id-1] = seg(c.blind[id])
		var coll uint64
		for a := 1; a <= c.lag[id] && a <= c.round; a++ {
			d := c.round - a
			i := id*collRing + d%collRing
			if c.collSeen[i] && c.collRound[i] == d && c.collMask[i]>>uint(lane)&1 != 0 {
				coll |= 1 << uint(a-1)
			}
		}
		perLane[id-1] = coll
	}
	packed[busPresent*n] = seg(c.presentB)
	if invariant.Enabled {
		faults := packed[busPresent*n+1:]
		for a := 0; a < invWindow; a++ {
			for i := 0; i < 3; i++ {
				faults[3*a+i] = 0
				if a < c.round {
					faults[3*a+i] = seg(c.invFaults[(c.round-1-a)%invWindow][i])
				}
			}
		}
		perLane[n] = c.invTainted >> uint(lane) & 1
	}
	return nil
}

// RestoreLanes overwrites every lane of the mask `lanes` (bit r = lane r)
// with a lane record: recs[i] is the record of the i-th lane of the mask,
// in lane order. Each restored lane then runs on exactly as its captured
// lane would have from its capture round, and every other lane is left
// untouched. The lanes, the records' shape and the gang's warm-up are
// checked once per call, and every lane-packed word is assembled from the
// records and written once, not once per lane. The destination gang must
// be warm, at least as many rounds past its start as the diagnosis lag (an
// earlier restore is an error), so that the collision verdicts a job still
// reads land on rounds the gang has; a lane's verdicts of older rounds are
// left stale, as no job reads them. The lanes' disturbances and horizons
// are left as they are, and each restored lane asks its chain afresh
// which slots it leaves quiet (see AddLaneDisturbance); the other lanes
// keep their answers. The HealthyRows hint is recomputed from the shared
// rows. Under ttdiag_invariants every restored lane is re-captured and must
// equal its record. Zero allocations after the first restore.
func (c *BatchDiagCluster) RestoreLanes(lanes uint64, recs [][]uint64) error {
	if err := c.checkLanes(lanes); err != nil {
		return err
	}
	if len(recs) != bits.OnesCount64(lanes) {
		return fmt.Errorf("sim: %d lane records for %d lanes", len(recs), bits.OnesCount64(lanes))
	}
	for _, rec := range recs {
		if err := c.checkRecord(rec); err != nil {
			return err
		}
	}
	n := c.n
	for id := 1; id <= n; id++ {
		if c.round < c.lag[id] {
			return fmt.Errorf("sim: lane restore at round %d, before node %d's diagnosis lag of %d rounds", c.round, id, c.lag[id])
		}
	}
	size := core.LaneRecordLen(n)
	for id := 1; id <= n; id++ {
		if err := c.protos[id].RestoreLanes(lanes, recs, (id-1)*size); err != nil {
			return err
		}
	}
	busAt, np := c.recBus(), c.busPacked()
	if c.restoreAcc == nil {
		c.restoreAcc = make([]uint64, np)
	}
	acc := c.restoreAcc
	core.GatherLanes(acc, lanes, recs, busAt, n)
	segs := expandColumn(lanes, 0, n) * c.laneAll // every restored lane's node bits
	put := func(w uint64, o int) uint64 { return w&^segs | acc[o] }
	c.healthyRows = 0
	var blinded uint64 // the restored lanes' blinded segments
	for id := 1; id <= n; id++ {
		c.staged[id] = put(c.staged[id], busStaged*n+id-1)
		c.rows[id].Op = put(c.rows[id].Op, busRows*n+id-1)
		if c.rows[id].Op&c.allB == c.allB {
			c.healthyRows |= 1 << uint(id-1)
		}
		c.ign[id] = put(c.ign[id], busIgn*n+id-1)
		c.ownClear[id] = put(c.ownClear[id], busOwnClear*n+id-1)
		c.blind[id] = put(c.blind[id], busBlind*n+id-1)
		blinded |= acc[busBlind*n+id-1]
	}
	c.presentB = put(c.presentB, busPresent*n)
	if blinded != 0 {
		// Only gangs with blinded lanes refresh the blind masks.
		for m := lanes; m != 0; m &= m - 1 {
			if r := bits.TrailingZeros64(m); blinded>>uint(r*n)&c.laneAll != 0 {
				c.blindLanes |= 1 << uint(r)
			}
		}
	}
	collAt := busAt + np
	for id := 1; id <= n; id++ {
		for a := 1; a <= c.lag[id] && a <= c.round; a++ {
			d := c.round - a
			i := id*collRing + d%collRing
			if !c.collSeen[i] || c.collRound[i] != d {
				c.collRound[i], c.collMask[i], c.collSeen[i] = d, 0, true
			}
			mask := c.collMask[i] &^ lanes
			for j, m := 0, lanes; m != 0; j, m = j+1, m&(m-1) {
				mask |= recs[j][collAt+id-1] >> uint(a-1) & 1 << uint(bits.TrailingZeros64(m))
			}
			c.collMask[i] = mask
		}
	}
	c.resetWake(lanes)
	if invariant.Enabled {
		c.invTainted &^= lanes
		for j, m := 0, lanes; m != 0; j, m = j+1, m&(m-1) {
			c.invTainted |= recs[j][collAt+n] << uint(bits.TrailingZeros64(m))
		}
		for a := 0; a < invWindow && a < c.round; a++ {
			f := &c.invFaults[(c.round-1-a)%invWindow]
			for i := range f {
				f[i] = put(f[i], busPresent*n+1+3*a+i)
			}
		}
		for j, m := 0, lanes; m != 0; j, m = j+1, m&(m-1) {
			c.checkRestoredLane(bits.TrailingZeros64(m), recs[j])
		}
	}
	return nil
}

// checkRestoredLane re-captures a lane RestoreLanes just wrote and
// requires it to equal its record; collision verdicts and fault history
// older than the gang's first round have nowhere to land and are not
// compared. The node states were compared by core.BatchProtocol.RestoreLanes.
func (c *BatchDiagCluster) checkRestoredLane(lane int, want []uint64) {
	if c.invLane == nil {
		c.invLane = make([]uint64, c.LaneRecordLen())
	}
	got := c.invLane
	if err := c.CaptureLaneRecord(lane, got); err != nil {
		invariant.Checkf(false, "sim: re-capturing restored lane %d: %v", lane, err)
		return
	}
	n := c.n
	window := uint64(1)<<uint(min(c.round, collRing)) - 1 // ages the gang has
	busAt, np := c.recBus(), c.busPacked()
	bus, wantBus := got[busAt:], want[busAt:]
	history := busPresent*n + 1 + 3*min(c.round, invWindow) // rounds the gang has
	same := slices.Equal(bus[:history], wantBus[:history]) && bus[np+n] == wantBus[np+n]
	for id := 1; id <= n && same; id++ {
		same = bus[np+id-1] == wantBus[np+id-1]&window
	}
	if !same {
		invariant.Checkf(false, "sim: round %d: restored lane %d does not re-capture to the checkpoint it was restored from", c.round, lane)
	}
}
