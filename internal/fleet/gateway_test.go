package fleet

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"ttdiag/internal/core"
	"ttdiag/internal/rng"
)

// refGateway is the executable reference of the gateway level: the same
// lock-step round over per-run core.Protocol instances, whose collision
// detector is queried through a CollisionFn like the intra-cluster engine's.
type refGateway struct {
	s, synLen int
	all       uint64
	observe   bool
	protos    []*core.Protocol
	rows      []core.BitSyndrome
	present   uint64
	ign       []uint64
	lost      []uint64 // lost[r]: gateways whose round-r frame was dropped
}

func newRefGateway(t *testing.T, s int, pr core.PRConfig) *refGateway {
	t.Helper()
	g := &refGateway{
		s: s, synLen: core.EncodedLen(s), all: core.PlaneMask(s),
		observe: pr.ReintegrationThreshold > 0,
		protos:  make([]*core.Protocol, s+1),
		rows:    make([]core.BitSyndrome, s+1),
		ign:     make([]uint64, s+1),
	}
	for id := 1; id <= s; id++ {
		p, err := core.NewProtocol(core.Config{
			N: s, ID: id, L: 0,
			SendCurrRound: true, AllSendCurrRound: true,
			Mode: core.ModeDiagnostic, PR: pr,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.protos[id] = p
		g.rows[id] = core.BitSyndrome{Op: g.all, Known: g.all}
	}
	g.present = g.all
	return g
}

// runRound steps every gateway on the previous round's deliveries, then
// delivers the frames not in drop.
func (g *refGateway) runRound(t *testing.T, drop uint64) []core.RoundOutput {
	t.Helper()
	round := len(g.lost)
	outs := make([]core.RoundOutput, g.s+1)
	for id := 1; id <= g.s; id++ {
		id := id
		vis := g.present &^ g.ign[id]
		out, err := g.protos[id].StepPacked(core.PackedRoundInput{
			Round:    round,
			Rows:     g.rows,
			Present:  vis,
			Validity: core.BitSyndrome{Op: vis, Known: g.all},
			Collision: func(r int) core.Opinion {
				if r >= 0 && r < len(g.lost) && g.lost[r]&(1<<uint(id-1)) != 0 {
					return core.Faulty
				}
				return core.Healthy
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		out.Send = append([]byte(nil), out.Send...)
		outs[id] = out
		if !g.observe {
			g.ign[id] = g.all &^ out.ActiveMask
		}
	}
	drop &= g.all
	g.lost = append(g.lost, drop)
	g.present = g.all &^ drop
	for id := 1; id <= g.s; id++ {
		if drop&(1<<uint(id-1)) == 0 {
			row, err := core.BitSyndromeFromWire(outs[id].Send, g.s)
			if err != nil {
				t.Fatal(err)
			}
			g.rows[id] = row
		}
	}
	return outs
}

func isolatedMask(ids []int) uint64 {
	var m uint64
	for _, j := range ids {
		m |= 1 << uint(j-1)
	}
	return m
}

// TestGatewayMatchesPerRunProtocol pins the gateway level, which runs every
// gateway as a one-lane core.BatchProtocol, against the per-run
// core.Protocol reference: health vectors, wire bytes, activity, isolations,
// reintegrations and penalty counters agree round by round under random
// frame loss, a whole-shard outage and an intermittent gateway.
func TestGatewayMatchesPerRunProtocol(t *testing.T) {
	cases := []struct {
		s  int
		pr core.PRConfig
	}{
		{2, core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8}},
		{5, core.PRConfig{PenaltyThreshold: 2, RewardThreshold: 4}},
		{16, core.PRConfig{PenaltyThreshold: 1, RewardThreshold: 2, ReintegrationThreshold: 3}},
		{64, core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8}},
	}
	const rounds = 40
	for _, tc := range cases {
		t.Run(fmt.Sprintf("s%d", tc.s), func(t *testing.T) {
			gw, err := NewGatewayNet(tc.s, tc.pr)
			if err != nil {
				t.Fatal(err)
			}
			// Run twice: the second repetition checks Reset.
			for rep := 0; rep < 2; rep++ {
				gw.Reset()
				ref := newRefGateway(t, tc.s, tc.pr)
				stream := rng.NewSource(int64(tc.s)).Stream(fmt.Sprintf("gateway/rep-%d", rep))
				summaries := make([]core.ShardSummary, tc.s)
				isolations := 0
				for k := 0; k < rounds; k++ {
					var drop uint64
					for g := 1; g <= tc.s; g++ {
						outage := g == 1 && k >= 12
						intermittent := g == tc.s && k%3 == 0
						if outage || intermittent || stream.Intn(10) == 0 {
							drop |= 1 << uint(g-1)
						}
					}
					for i := range summaries {
						summaries[i] = core.ShardSummary{Size: 8, Isolated: stream.Intn(3), Faulty: stream.Intn(3)}
					}
					got, err := gw.RunRound(summaries, drop)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.runRound(t, drop)
					for g := 1; g <= tc.s; g++ {
						tag := fmt.Sprintf("rep %d round %d gateway %d", rep, k, g)
						o, w := &got[g], want[g]
						if o.Warm != (w.ConsHV != nil) || o.DiagnosedRound != w.DiagnosedRound {
							t.Fatalf("%s: warm/diagnosed %v/%d, reference %v/%d", tag, o.Warm, o.DiagnosedRound, w.ConsHV != nil, w.DiagnosedRound)
						}
						if o.Warm && o.LaneConsHV(0, tc.s) != w.ConsHVBits {
							t.Fatalf("%s: health vector %+v, reference %+v", tag, o.LaneConsHV(0, tc.s), w.ConsHVBits)
						}
						wire := make([]byte, core.EncodedLen(tc.s))
						o.LaneSend(0, tc.s).EncodeInto(wire)
						if !bytes.Equal(wire, w.Send) {
							t.Fatalf("%s: wire bytes %x, reference %x", tag, wire, w.Send)
						}
						if o.ActiveMask != w.ActiveMask || gw.ActiveMask(g) != w.ActiveMask {
							t.Fatalf("%s: active %#x, reference %#x", tag, o.ActiveMask, w.ActiveMask)
						}
						if o.IsolatedMask != isolatedMask(w.Isolated) || o.ReintegratedMask != isolatedMask(w.Reintegrated) {
							t.Fatalf("%s: isolated/reintegrated %#x/%#x, reference %v/%v", tag, o.IsolatedMask, o.ReintegratedMask, w.Isolated, w.Reintegrated)
						}
						isolations += bits.OnesCount64(o.IsolatedMask)
						for j := 1; j <= tc.s; j++ {
							if p, q := gw.Protocol(g).LanePenalty(0, j), ref.protos[g].PenaltyReward().Penalty(j); p != q {
								t.Fatalf("%s: penalty of shard %d %d, reference %d", tag, j, p, q)
							}
						}
						if drop&(1<<uint(g-1)) == 0 && gw.Received(g) != summaries[g-1] {
							t.Fatalf("%s: received summary %+v, sent %+v", tag, gw.Received(g), summaries[g-1])
						}
					}
				}
				if isolations == 0 {
					t.Fatal("no gateway isolated anything — the comparison is weak")
				}
			}
		})
	}
}
