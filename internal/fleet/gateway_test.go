package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

// perRunGateways is the executable reference of the gateway level: a
// per-run sim diagnostic cluster with the S gateways as nodes, every job
// before the round's first slot, carrying one slot burst per dropped frame.
// It returns the GatewayResult the campaign must report and every gateway's
// final penalty counters (observer·(S+1)+shard). The received summaries and
// the drop count follow from the drop decisions themselves, not from the
// bus's ground truth.
func perRunGateways(t *testing.T, cfg Config, summaries [][]core.ShardSummary, drop [][]bool) (*GatewayResult, []int64) {
	t.Helper()
	s, rounds := cfg.Shards, cfg.Rounds
	eng, runners, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
		N:                s,
		RoundLen:         625 * time.Microsecond * time.Duration(s),
		Ls:               sim.Uniform(s, 0),
		AllSendCurrRound: true,
		PR:               cfg.GatewayPR,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &GatewayResult{
		HVs:            make([][]core.BitSyndrome, rounds),
		IsolationRound: make([]int, s+1),
		FinalActive:    make([]uint64, s+1),
		Received:       make([]core.ShardSummary, s+1),
	}
	for i := range want.IsolationRound {
		want.IsolationRound[i] = -1
	}
	var bursts []fault.Burst
	for k := 0; k < rounds; k++ {
		for g := 1; g <= s; g++ {
			if drop[k][g] {
				bursts = append(bursts, fault.SlotBurst(eng.Schedule(), k, g, 1))
				want.Drops++
			} else {
				want.Received[g] = summaries[g-1][k]
			}
		}
	}
	eng.Bus().AddDisturbance(fault.NewTrain(bursts...))
	for g := 1; g <= s; g++ {
		g := g
		runners[g].OnOutput = func(out core.RoundOutput) {
			if out.ConsHV.Known != 0 && out.DiagnosedRound >= 0 {
				if want.HVs[out.DiagnosedRound] == nil {
					want.HVs[out.DiagnosedRound] = make([]core.BitSyndrome, s+1)
				}
				want.HVs[out.DiagnosedRound][g] = out.ConsHV
			}
			want.FinalActive[g] = out.Active
			for j := 1; j <= s; j++ {
				if out.Isolated>>uint(j-1)&1 != 0 && want.IsolationRound[j] < 0 {
					want.IsolationRound[j] = out.Round
				}
			}
		}
	}
	if err := eng.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	pen := make([]int64, (s+1)*(s+1))
	for g := 1; g <= s; g++ {
		for j := 1; j <= s; j++ {
			pen[g*(s+1)+j] = runners[g].Protocol().PenaltyReward().Penalty(j)
		}
	}
	return want, pen
}

// TestGatewayMatchesPerRunProtocol pins the gateway level, a one-lane
// sim.BatchDiagCluster inside Campaign.Run, against a per-run diagnostic
// cluster carrying the same frame losses: health vectors, isolation rounds,
// final activity, received summaries, drop count and every penalty counter
// agree under random frame loss, a whole-shard outage and an intermittent
// gateway, with and without reintegration.
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
			c, err := New(Config{Nodes: 2 * tc.s, Shards: tc.s, Rounds: rounds, Workers: 1, GatewayPR: tc.pr})
			if err != nil {
				t.Fatal(err)
			}
			// Run twice: the second repetition checks the reset.
			isolations := 0
			for rep := 0; rep < 2; rep++ {
				stream := rng.NewSource(int64(tc.s)).Stream(fmt.Sprintf("gateway/rep-%d", rep))
				drop := make([][]bool, rounds)
				for k := range drop {
					drop[k] = make([]bool, tc.s+1)
					for g := 1; g <= tc.s; g++ {
						outage := g == 1 && k >= 12
						intermittent := g == tc.s && k%3 == 0
						drop[k][g] = outage || intermittent || stream.Intn(10) == 0
					}
				}
				res, err := c.Run(rng.NewSource(int64(rep)), Hooks{
					GatewayDrop: func(round, g int) bool { return drop[round][g] },
				})
				if err != nil {
					t.Fatal(err)
				}
				want, wantPen := perRunGateways(t, c.Config(), c.summaries, drop)
				if !reflect.DeepEqual(res.Gateway, want) {
					t.Fatalf("rep %d: gateway result differs\ncampaign: %+v\nper-run:  %+v", rep, res.Gateway, want)
				}
				for g := 1; g <= tc.s; g++ {
					for j := 1; j <= tc.s; j++ {
						if p, q := c.gw.Proto(g).LanePenalty(0, j), wantPen[g*(tc.s+1)+j]; p != q {
							t.Fatalf("rep %d: gateway %d's penalty of shard %d is %d, per-run %d", rep, g, j, p, q)
						}
					}
				}
				for _, r := range want.IsolationRound[1:] {
					if r >= 0 {
						isolations++
					}
				}
			}
			if isolations == 0 {
				t.Fatal("no gateway isolated anything — the comparison is weak")
			}
		})
	}
}
