package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
)

// The snapshot DTOs capture every field of the protocol state machine, so a
// node restarted by its host OS can resume its diagnostic job exactly where
// it stopped (same buffers, same counters) instead of rejoining with amnesia
// — the checkpointing hook a production middleware needs.

type protocolSnapshot struct {
	Config Config           `json:"config"`
	Steps  int              `json:"steps"`
	PR     prSnapshot       `json:"pr"`
	PrevDM map[int]Syndrome `json:"prevDM,omitempty"`

	PrevLS     Syndrome `json:"prevLS"`
	PrevAlLS   Syndrome `json:"prevAlLS"`
	LastSent   Syndrome `json:"lastSent"`
	PrevSent   Syndrome `json:"prevSent"`
	Accuse     []int    `json:"accuse"`
	AccusedAge []int    `json:"accusedAge"`
}

type prSnapshot struct {
	Penalties []int64 `json:"penalties"`
	Rewards   []int64 `json:"rewards"`
	Active    []bool  `json:"active"`
	Observe   []int64 `json:"observe"`
}

// Snapshot serialises the protocol's full state (configuration, alignment
// buffers, accusation state and penalty/reward counters) to JSON. Only the
// buffer the next Step will read (the previous round's observations) is
// captured; syndromes are written byte-per-entry.
func (p *Protocol) Snapshot() ([]byte, error) { return p.b.SnapshotLane(0) }

// RestoreProtocol rebuilds a protocol instance from a Snapshot. The restored
// instance continues at the next round after the snapshot was taken.
// Restoring is lossless: a snapshot that would not re-serialise to the same
// state — a syndrome entry outside {Faulty, Healthy, Erased}, a prevDM key
// outside 1..N, a missing mode, an accusation counter outside
// [0, accusationTTL] or an accusation age outside [0, accusationSkew+1]
// (neither fits the kernel's registers, and no run produces them) — is
// rejected rather than silently normalised.
func RestoreProtocol(data []byte) (*Protocol, error) {
	// The round cursor is decoded through a pointer shadow so a checkpoint
	// that lost its "steps" field is rejected instead of silently resuming
	// from round zero — which would replay rounds the cluster already
	// executed and desynchronise the node from its peers. The embedded
	// struct keeps every other field's decoding (and Snapshot's wire bytes)
	// unchanged.
	var wire struct {
		protocolSnapshot
		Steps *int `json:"steps"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if wire.Steps == nil {
		return nil, fmt.Errorf("core: restore: checkpoint has no round cursor (missing \"steps\")")
	}
	if *wire.Steps < 0 {
		return nil, fmt.Errorf("core: restore: negative round cursor (steps = %d)", *wire.Steps)
	}
	snap := wire.protocolSnapshot
	snap.Steps = *wire.Steps
	if snap.Config.Mode == 0 {
		return nil, fmt.Errorf("core: restore: checkpoint config has no mode")
	}
	p, err := NewProtocol(snap.Config)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	n := snap.Config.N
	pack := func(name string, s Syndrome) (BitSyndrome, error) {
		if s.N() != n {
			return BitSyndrome{}, fmt.Errorf("core: restore: %s covers %d nodes, want %d", name, s.N(), n)
		}
		for j, v := range s {
			if v > Erased || j == 0 && v != Erased {
				return BitSyndrome{}, fmt.Errorf("core: restore: %s holds a value outside {Faulty, Healthy, ε}", name)
			}
		}
		return packSyndrome(s), nil
	}
	// Iterated as an ordered slice, not a map: which syndrome's error is
	// reported must not depend on map-iteration order (no-map-range-state).
	var packed [4]BitSyndrome
	for i, it := range []struct {
		name string
		s    Syndrome
	}{
		{"prevLS", snap.PrevLS}, {"prevAlLS", snap.PrevAlLS},
		{"lastSent", snap.LastSent}, {"prevSent", snap.PrevSent},
	} {
		if packed[i], err = pack(it.name, it.s); err != nil {
			return nil, err
		}
	}
	if len(snap.Accuse) != n+1 || len(snap.AccusedAge) != n+1 {
		return nil, fmt.Errorf("core: restore: accusation state has wrong size")
	}
	if len(snap.PR.Penalties) != n+1 || len(snap.PR.Rewards) != n+1 ||
		len(snap.PR.Active) != n+1 || len(snap.PR.Observe) != n+1 {
		return nil, fmt.Errorf("core: restore: penalty/reward state has wrong size")
	}
	b := p.b
	b.steps = snap.Steps
	// Fill the buffer the next Step will read; the other buffer is dead
	// state (it is fully rewritten before it is ever read again).
	rd := &b.pbufs[b.steps&1]
	rd.ls, rd.al = packed[0], packed[1]
	b.lastSentB, b.prevSentB = packed[2], packed[3]
	rd.set = 0
	for j := 1; j <= n; j++ {
		if dm, ok := snap.PrevDM[j]; ok {
			if rd.rows[j], err = pack("prevDM", dm); err != nil {
				return nil, err
			}
			rd.set |= 1 << uint(j-1)
		}
	}
	if bits.OnesCount64(rd.set) != len(snap.PrevDM) {
		return nil, fmt.Errorf("core: restore: prevDM has keys outside 1..%d", n)
	}
	// Entry 0 is unused and always holds the fresh values; every other
	// counter lands in the register generation it names.
	if snap.Accuse[0] != 0 || snap.AccusedAge[0] != accusationSkew+1 {
		return nil, fmt.Errorf("core: restore: accusation state entry 0 is not the unused default")
	}
	for j := 1; j <= n; j++ {
		bit := uint64(1) << uint(j-1)
		if a := snap.Accuse[j]; a < 0 || a > accusationTTL {
			return nil, fmt.Errorf("core: restore: accusation counter of node %d is %d, outside [0, %d]", j, a, accusationTTL)
		} else if a > 0 {
			b.accuse[a-1] |= bit
		}
		if g := snap.AccusedAge[j]; g < 0 || g > accusationSkew+1 {
			return nil, fmt.Errorf("core: restore: accusation age of node %d is %d, outside [0, %d]", j, g, accusationSkew+1)
		} else if g <= accusationSkew {
			b.age[g] |= bit
			b.aging |= bit
		}
	}
	copy(b.pr.penalties, snap.PR.Penalties)
	copy(b.pr.rewards, snap.PR.Rewards)
	copy(b.pr.active, snap.PR.Active)
	copy(b.pr.observe, snap.PR.Observe)
	b.pr.rebuildMasks()
	return p, nil
}
