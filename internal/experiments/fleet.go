// The fleet-resilience experiment: hierarchical diagnosis past the packed
// 64-node wall (internal/fleet). Every repetition runs a three-part fault
// scenario across a sharded fleet — an intra-shard burst audited by
// Theorem 1 inside its shard, a transient gateway-frame loss that must stay
// below the fleet-level penalty threshold, and a whole-shard outage the
// surviving gateways must isolate — while the fleet level's own health
// vectors are checked for cross-gateway consistency.
package experiments

import (
	"fmt"
	"strconv"

	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/fleet"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fleet-resilience",
		Title: "Hierarchical fleets: shard past the 64-node wall, diagnose shards one level up",
		Ref:   "beyond the paper",
		Run:   runFleetResilience,
	})
}

// fleetGatewayPR is the fleet-level penalty/reward tuning of the
// experiment: three faulty gateway rounds isolate a shard, eight fault-free
// rounds mint one reward.
var fleetGatewayPR = core.PRConfig{PenaltyThreshold: 3, RewardThreshold: 8}

// fleetRounds is the TDMA horizon of every repetition: long enough for the
// latest outage draw (round 11) to be isolated with rounds to spare.
const fleetRounds = 24

// fleetCase is one sweep entry.
type fleetCase struct{ nodes, shards int }

// runFleetResilience sweeps fleet geometries from 256 nodes in 4 shards to
// 4096 nodes in 64 shards (or a single geometry when -fleet/-shards pin
// one) and scores each over p.Runs scenario repetitions.
func runFleetResilience(p Params) error {
	sweep := []fleetCase{{256, 4}, {256, 16}, {1024, 16}, {4096, 64}}
	if p.FleetNodes > 0 || p.FleetShards > 0 {
		nodes, shards := p.FleetNodes, p.FleetShards
		if nodes == 0 {
			nodes = 1024
		}
		if shards == 0 {
			shards = 16
		}
		sweep = []fleetCase{{nodes, shards}}
	}
	t := newTable(p.Out)
	t.row("nodes", "shards", "shard size", "runs", "intra violations", "gw violations", "outages isolated", "mean latency")
	t.rule(8)
	src := rng.NewSource(p.Seed)
	ws := p.workerSet()
	for _, fc := range sweep {
		if err := runFleetCase(p, fc, src, ws, t); err != nil {
			return err
		}
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\nevery node stays on the packed fast path; whole-shard outages are isolated by the same Alg. 1 pipeline one level up")
	return p.recordMetrics("fleet-resilience", ws)
}

func runFleetCase(p Params, fc fleetCase, src *rng.Source, ws *metrics.WorkerSet, t *table) error {
	c, err := fleet.New(fleet.Config{
		Nodes: fc.nodes, Shards: fc.shards, Rounds: fleetRounds,
		Workers: p.Workers, GatewayPR: fleetGatewayPR, Metrics: ws,
	})
	if err != nil {
		return err
	}
	var latHist *metrics.Histogram
	if reg := c.GatewayRegistry(); reg != nil {
		latHist = reg.Histogram("fleet/outage_isolation_latency_rounds", 2, 4, 8, 16, 32)
	}
	s := fc.shards
	intraViol, gwViol, isolated, latSum := 0, 0, 0, 0
	for run := 0; run < p.Runs; run++ {
		scen := src.Stream(fmt.Sprintf("fleet/N%d-S%d/run-%d/scenario", fc.nodes, fc.shards, run))
		victim := scen.Intn(s)
		outage, gwf := -1, -1
		outageRound, gwfRound := 0, 0
		if s >= 2 {
			outage = (victim + 1 + scen.Intn(s-1)) % s
			outageRound = 8 + scen.Intn(4)
			if s >= 3 {
				// A transient two-round frame loss at a third gateway: must
				// stay below the penalty threshold. (May coincide with the
				// victim — gateway faults never disturb intra-shard traffic.)
				gwf = (outage + 1 + scen.Intn(s-1)) % s
				gwfRound = 4 + scen.Intn(3)
			}
		}
		prefix := fmt.Sprintf("fleet/N%d-S%d/run-%d", fc.nodes, fc.shards, run)
		hooks := fleet.Hooks{
			Prepare: fleetBurstPrepare(prefix, victim),
			GatewayDrop: func(round, g int) bool {
				if outage >= 0 && g == outage+1 && round >= outageRound {
					return true
				}
				return gwf >= 0 && g == gwf+1 && round >= gwfRound && round < gwfRound+2
			},
		}
		res, err := c.Run(src, hooks)
		if err != nil {
			return err
		}
		for _, sr := range res.Shards {
			if sr.Verdict != "" {
				intraViol++
				break
			}
		}
		if gr := res.Gateway; gr != nil {
			gwViol += fleetGatewayViolations(gr, c.Sizes(), outage, gwf)
			if iso := gr.IsolationRound[outage+1]; iso >= 0 {
				isolated++
				lat := iso - outageRound
				latSum += lat
				if latHist != nil {
					latHist.Observe(int64(lat))
				}
			}
		}
		if p.Progress != nil {
			p.Progress(run)
		}
	}
	sizes := c.Sizes()
	minSz, maxSz := sizes[0], sizes[0]
	for _, sz := range sizes {
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	sizeCol := strconv.Itoa(minSz)
	if maxSz != minSz {
		sizeCol = fmt.Sprintf("%d-%d", minSz, maxSz)
	}
	isoCol, latCol := "-", "-"
	if s >= 2 {
		isoCol = fmt.Sprintf("%d/%d", isolated, p.Runs)
		if isolated > 0 {
			latCol = fmt.Sprintf("%.1f rounds", float64(latSum)/float64(isolated))
		}
	}
	t.row(strconv.Itoa(fc.nodes), strconv.Itoa(fc.shards), sizeCol, strconv.Itoa(p.Runs),
		strconv.Itoa(intraViol), strconv.Itoa(gwViol), isoCol, latCol)
	return nil
}

// fleetBurstPrepare injects a single-slot benign burst into the victim
// shard (node and round drawn from a run/shard-named stream) and audits
// Theorem 1 around the injection window.
func fleetBurstPrepare(prefix string, victim int) func(fleet.ShardRun) (func() string, error) {
	return func(sr fleet.ShardRun) (func() string, error) {
		if sr.Shard != victim {
			return nil, nil
		}
		stream := sr.Pool.Stream(fmt.Sprintf("%s/shard-%d", prefix, sr.Shard))
		inject := 6 + stream.Intn(3)
		node := 2 + stream.Intn(sr.Size-1)
		cl := sr.Cluster
		cl.AddLaneDisturbance(sr.Lane, fault.NewTrain(
			fault.SlotBurst(cl.Schedule(), inject, node, 1)))
		obedient := make([]int, sr.Size)
		for i := range obedient {
			obedient[i] = i + 1
		}
		truth, col := cl.LaneTruth(sr.Lane), cl.LaneCollector(sr.Lane)
		return func() string {
			if err := sim.AuditTheorem1(truth, col, obedient, 4, inject+6); err != nil {
				return err.Error()
			}
			return ""
		}, nil
	}
}

// fleetGatewayViolations scores one repetition's fleet-level outcome: the
// consistency of every diagnosed gateway-round health vector across
// gateways, no spurious isolations (only the outage shard may be isolated —
// the transient gateway fault must stay below the threshold), and a summary
// delivered from every surviving gateway.
func fleetGatewayViolations(gr *fleet.GatewayResult, sizes []int, outage, gwf int) int {
	viol := 0
	s := len(sizes)
	for _, hvs := range gr.HVs {
		if hvs == nil {
			continue
		}
		var ref core.BitSyndrome
		refSet := false
		for g := 1; g <= s; g++ {
			hv := hvs[g]
			if hv.Known == 0 {
				continue
			}
			if !refSet {
				ref, refSet = hv, true
			} else if hv != ref {
				viol++
			}
		}
	}
	for g := 1; g <= s; g++ {
		if g == outage+1 {
			continue
		}
		if gr.IsolationRound[g] >= 0 {
			viol++ // spurious isolation (includes the transient-fault gateway)
		}
		if gr.Received[g].Size != sizes[g-1] {
			viol++ // no summary delivered from a surviving gateway
		}
	}
	return viol
}
