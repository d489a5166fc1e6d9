package fleet

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/core"
)

// gwCollRing is how many rounds of gateway-frame collision outcomes are kept
// for the protocols' collision-detector queries; the diagnosis lag is at most
// 3, so 8 is comfortable.
const gwCollRing = 8

// GatewayNet is the inter-cluster diagnosis level: one protocol per shard
// gateway with shards as "nodes" — a one-lane core.BatchProtocol, the same
// kernel the shards run — plus a lock-step emulation of the gateway TDMA
// round. Every gateway's job runs at l = 0 (before the round's first gateway
// slot) and writes its frame for the same round (SendCurrRound everywhere,
// so AllSendCurrRound shrinks the fleet-level detection latency to two
// gateway rounds).
//
// A gateway frame is the fleet-level dissemination payload: the S-bit
// syndrome over the shards (byte-identical to the intra-cluster wire format)
// followed by the SummaryWireLen-byte bit-packed ShardSummary. The net keeps
// one shared inbox — gateway faults are modelled receiver-uniformly (a
// dropped frame is missing at every receiver and the sender's collision
// detector fires), which is the benign-fault model of the paper's bus.
type GatewayNet struct {
	s      int
	synLen int
	all    uint64
	// observe mirrors the sim layer: under the reintegration extension,
	// isolated gateways are still listened to so fault-free behaviour can be
	// rewarded.
	observe bool

	protos []*core.BatchProtocol // 1-based, one lane each
	outs   []core.BatchRoundOutput
	lag    int // the gateways' diagnosis lag (2: AllSendCurrRound)

	// rows/present are the shared interface state: the frames delivered by
	// the previous gateway round. recv holds the summary each frame carried.
	rows    []core.BitSyndrome
	present uint64
	recv    []core.ShardSummary
	// staged[g] is gateway g's frame buffer (syndrome bytes + summary).
	staged [][]byte
	// ign[g] is the set of senders gateway g's controller drops (fleet-level
	// isolation applied to the interface, like tdma.Controller.SetIgnored).
	ign []uint64
	// collided[r%gwCollRing] records which gateways' own transmissions were
	// lost in round r (the sender-side read-back of Lemma 3).
	collided [gwCollRing]uint64
	round    int
}

// NewGatewayNet builds the fleet-level net for s shards (2 <= s <=
// core.MaxPackedN) under the given penalty/reward tuning.
func NewGatewayNet(s int, pr core.PRConfig) (*GatewayNet, error) {
	if s < 2 || s > core.MaxPackedN {
		return nil, fmt.Errorf("fleet: gateway net needs 2..%d shards, got %d", core.MaxPackedN, s)
	}
	gw := &GatewayNet{
		s:       s,
		synLen:  core.EncodedLen(s),
		all:     core.PlaneMask(s),
		observe: pr.ReintegrationThreshold > 0,
		protos:  make([]*core.BatchProtocol, s+1),
		outs:    make([]core.BatchRoundOutput, s+1),
		rows:    make([]core.BitSyndrome, s+1),
		recv:    make([]core.ShardSummary, s+1),
		staged:  make([][]byte, s+1),
		ign:     make([]uint64, s+1),
	}
	for g := 1; g <= s; g++ {
		cfg := core.Config{
			N: s, ID: g, L: 0,
			SendCurrRound: true, AllSendCurrRound: true,
			Mode: core.ModeDiagnostic, PR: pr,
		}
		p, err := core.NewBatchProtocol(cfg, 1)
		if err != nil {
			return nil, err
		}
		gw.protos[g] = p
		gw.lag = cfg.Lag()
		gw.staged[g] = make([]byte, gw.synLen+core.SummaryWireLen)
	}
	gw.bootstrap()
	return gw, nil
}

// bootstrap stages the all-healthy initial interface state, mirroring the
// intra-cluster middleware's interface initialisation.
func (gw *GatewayNet) bootstrap() {
	hw := core.BitSyndrome{Op: gw.all, Known: gw.all}
	for g := 1; g <= gw.s; g++ {
		gw.rows[g] = hw
		gw.recv[g] = core.ShardSummary{}
		gw.ign[g] = 0
		gw.outs[g] = core.BatchRoundOutput{DiagnosedRound: -1, ActiveMask: gw.all}
	}
	gw.present = gw.all
	gw.collided = [gwCollRing]uint64{}
	gw.round = 0
}

// Shards returns the width of the gateway level.
func (gw *GatewayNet) Shards() int { return gw.s }

// Protocol exposes gateway g's fleet-level protocol instance (1-based; one
// lane, so lane 0 is the gateway).
func (gw *GatewayNet) Protocol(g int) *core.BatchProtocol { return gw.protos[g] }

// ActiveMask returns gateway g's activity vector over the shards after the
// last round (bit t-1 = shard t; all active before the first round).
func (gw *GatewayNet) ActiveMask(g int) uint64 { return gw.outs[g].ActiveMask }

// Received returns the last ShardSummary decoded from gateway g's frame
// (1-based); the zero value before its first delivery.
func (gw *GatewayNet) Received(g int) core.ShardSummary { return gw.recv[g] }

// Reset rewinds the net to its freshly built state for the next repetition,
// keeping every allocation.
func (gw *GatewayNet) Reset() {
	for g := 1; g <= gw.s; g++ {
		gw.protos[g].Reset(1)
	}
	gw.bootstrap()
}

// collision answers gateway g's collision-detector query from the ring: 1
// when its own frame of the given round was lost, the one-lane
// CollisionFaulty input.
func (gw *GatewayNet) collision(g, round int) uint64 {
	if round < 0 || round >= gw.round || round < gw.round-gwCollRing {
		return 0
	}
	return gw.collided[round%gwCollRing] >> uint(g-1) & 1
}

// RunRound executes one gateway TDMA round: every gateway's diagnostic job
// steps on the previous round's deliveries, then the round's slots transmit
// the freshly written frames. summaries[i] is the ShardSummary shard i
// (0-based) publishes this round; drop bit g-1 marks gateway g's frame as
// lost on the bus (receiver-uniform benign gateway fault — the frame reaches
// nobody and the sender's collision detector fires). The returned slice is
// net-owned scratch indexed 1-based by gateway, valid until the next call.
//
// The steady state allocates nothing, pinned by TestGatewayRoundAllocs.
//
//ttdiag:noretain
func (gw *GatewayNet) RunRound(summaries []core.ShardSummary, drop uint64) ([]core.BatchRoundOutput, error) {
	if len(summaries) != gw.s {
		return nil, fmt.Errorf("fleet: got %d shard summaries, want %d", len(summaries), gw.s)
	}
	round := gw.round
	// Job phase: all gateways read the interface state left by round-1's
	// slots. Isolation is applied per receiver through its ignore mask.
	for g := 1; g <= gw.s; g++ {
		vis := gw.present &^ gw.ign[g]
		out, err := gw.protos[g].StepBatch(core.BatchRoundInput{
			Round:           round,
			Rows:            gw.rows,
			Present:         vis,
			Validity:        core.BitSyndrome{Op: vis, Known: gw.all},
			CollisionFaulty: gw.collision(g, round-gw.lag),
		})
		if err != nil {
			return nil, err
		}
		gw.outs[g] = out
		if !gw.observe {
			gw.ign[g] = gw.all &^ out.ActiveMask
		}
	}
	// Slot phase: transmit the frames the jobs just wrote (SendCurrRound).
	drop &= gw.all
	gw.collided[round%gwCollRing] = drop
	gw.present = gw.all &^ drop
	for g := 1; g <= gw.s; g++ {
		if drop&(1<<uint(g-1)) != 0 {
			continue
		}
		frame := gw.staged[g]
		gw.outs[g].LaneSend(0, gw.s).EncodeInto(frame[:gw.synLen])
		if err := summaries[g-1].EncodeInto(frame[gw.synLen:]); err != nil {
			return nil, fmt.Errorf("fleet: gateway %d summary: %w", g, err)
		}
		row, err := core.BitSyndromeFromWire(frame[:gw.synLen], gw.s)
		if err != nil {
			return nil, fmt.Errorf("fleet: gateway %d frame: %w", g, err)
		}
		sum, err := core.DecodeShardSummary(frame[gw.synLen:])
		if err != nil {
			return nil, fmt.Errorf("fleet: gateway %d frame: %w", g, err)
		}
		gw.rows[g] = row
		gw.recv[g] = sum
	}
	gw.round++
	return gw.outs, nil
}

// droppedCount is a popcount helper for the campaign's drop accounting.
func droppedCount(drop uint64) int { return bits.OnesCount64(drop) }
