package sim

import (
	"fmt"
	"math/bits"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/membership"
	"ttdiag/internal/tdma"
)

func newSchedule(cfg ClusterConfig) (*tdma.Schedule, error) {
	if len(cfg.SlotLens) > 0 {
		if len(cfg.SlotLens) != cfg.N {
			return nil, fmt.Errorf("sim: SlotLens has %d entries, want %d", len(cfg.SlotLens), cfg.N)
		}
		return tdma.NewCustomSchedule(cfg.SlotLens)
	}
	return tdma.NewSchedule(cfg.N, cfg.RoundLen)
}

func tdmaID(id int) tdma.NodeID { return tdma.NodeID(id) }

// Isolation records one isolation (or reintegration) decision.
type Isolation struct {
	// Observer is the node that took the decision.
	Observer int
	// Node is the isolated node.
	Node int
	// Round is the execution round of the decision.
	Round int
}

// Collector gathers per-round protocol outputs from a cluster for auditing
// and metric extraction. Install its hooks before running the engine. A
// collector is one lane of a record: a per-run collector owns a one-lane
// record, and a BatchDiagCluster's lane collectors share the gang's.
type Collector struct {
	// Isolations and Reintegrations in decision order.
	Isolations     []Isolation
	Reintegrations []Isolation

	rec  *gangRecord
	lane int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{rec: new(gangRecord)}
}

// Reset empties the collector for reuse in the next campaign repetition,
// keeping its storage allocated. A reset collector is observationally
// identical to a fresh one. A gang lane's collector shares the gang's
// record, which BatchDiagCluster.ResetBatch empties: reset the gang, not
// its lanes' collectors.
func (c *Collector) Reset() {
	c.rec.words = c.rec.words[:0]
	c.Isolations = c.Isolations[:0]
	c.Reintegrations = c.Reintegrations[:0]
}

// HV returns the consistent health vector observer computed for a
// diagnosed round, or the zero vector (Known == 0) when it recorded none.
func (c *Collector) HV(round, observer int) core.BitSyndrome {
	g := c.rec
	if observer < 1 || observer > g.n || round < 0 || round >= g.rounds() {
		return core.BitSyndrome{}
	}
	w := g.words[round*g.stride()+classPlanes+2*(observer-1):]
	return core.BitSyndrome{Op: core.LaneView(w[0], c.lane, g.n), Known: core.LaneView(w[1], c.lane, g.n)}
}

// recorded reports whether any observer recorded a health vector for a
// diagnosed round (a warm vector is fully Known).
func (c *Collector) recorded(round int) bool {
	for obs := 1; obs <= c.rec.n; obs++ {
		if c.HV(round, obs).Known != 0 {
			return true
		}
	}
	return false
}

// HookDiag installs the collector on a DiagRunner.
func (c *Collector) HookDiag(observer int, r *DiagRunner) {
	c.rec.n = r.proto.Config().N
	r.OnOutput = func(out core.RoundOutput) { c.record(observer, out) }
}

// HookMembership installs the collector on a MembershipRunner.
func (c *Collector) HookMembership(observer int, r *MembershipRunner) {
	c.rec.n = r.svc.Protocol().Config().N
	r.OnOutput = func(out membership.Output) { c.record(observer, out.Diag) }
}

// addDecisions appends one observer's isolations and reintegrations of a
// round (node masks, bit j-1 = node j) in ascending node order.
func (c *Collector) addDecisions(observer, round int, isolated, reintegrated uint64) {
	for rem := isolated; rem != 0; rem &= rem - 1 {
		c.Isolations = append(c.Isolations, Isolation{Observer: observer, Node: bits.TrailingZeros64(rem) + 1, Round: round})
	}
	for rem := reintegrated; rem != 0; rem &= rem - 1 {
		c.Reintegrations = append(c.Reintegrations, Isolation{Observer: observer, Node: bits.TrailingZeros64(rem) + 1, Round: round})
	}
}

// record is the shared body of the per-run hooks: a one-lane record holds
// the vector as it is.
func (c *Collector) record(observer int, out core.RoundOutput) {
	if out.ConsHV.Known != 0 {
		c.rec.grow(out.DiagnosedRound + 1)
		c.rec.setHV(out.DiagnosedRound, observer, out.ConsHV)
	}
	c.addDecisions(observer, out.Round, out.Isolated, out.Reintegrated)
}

// classPlanes is the number of ground-truth class planes leading a round
// of a gangRecord: the benign, asymmetric and malicious senders.
const classPlanes = 3

// gangRecord is what a gang keeps of its rounds, in the lane-packed layout
// the kernel computes (bit r·N+j-1 is lane r's node j): per round k, the
// senders whose round-k delivery was benign, asymmetric or malicious, then
// every observer's consistent health vector of diagnosed round k (Op, then
// Known), 2N+3 words in all. A round is recorded when some lane lies
// inside its horizon, and only those lanes set health vector bits; a
// lane's views read the class planes of the rounds it recorded only.
type gangRecord struct {
	n     int
	words []uint64
}

func (g *gangRecord) stride() int { return classPlanes + 2*g.n }

func (g *gangRecord) rounds() int { return len(g.words) / g.stride() }

// grow extends the record to at least `rounds` rounds, the new ones empty.
func (g *gangRecord) grow(rounds int) {
	end := rounds * g.stride()
	if end <= len(g.words) {
		return
	}
	old := len(g.words)
	for cap(g.words) < end {
		g.words = append(g.words[:cap(g.words)], 0)
	}
	g.words = g.words[:end]
	clear(g.words[old:])
}

// setHV stores observer's health vector words for diagnosed round d.
func (g *gangRecord) setHV(d, observer int, hv core.BitSyndrome) {
	i := d*g.stride() + classPlanes + 2*(observer-1)
	g.words[i], g.words[i+1] = hv.Op, hv.Known
}

// FirstIsolation returns the earliest round in which any observer isolated
// the given node, or -1.
func (c *Collector) FirstIsolation(nodeID int) int {
	first := -1
	for _, iso := range c.Isolations {
		if iso.Node != nodeID {
			continue
		}
		if first == -1 || iso.Round < first {
			first = iso.Round
		}
	}
	return first
}

// FirstIsolationTime converts FirstIsolation into simulated time using the
// engine's schedule (the start of the decision round), or -1 if never.
func (c *Collector) FirstIsolationTime(nodeID int, sched *tdma.Schedule) time.Duration {
	round := c.FirstIsolation(nodeID)
	if round < 0 {
		return -1
	}
	return sched.RoundStart(round)
}

// TruthSource is the ground-truth record one simulated run leaves behind:
// how many rounds executed and, per executed round, the outcome class of
// every slot transmission (1-based by slot; see Engine.Truth). The lock-step
// Engine is one source; the lane-packed batch cluster exposes one source per
// lane.
type TruthSource interface {
	// Round returns the number of executed rounds.
	Round() int
	// Truth returns the executed round's outcome classes (1-based by slot),
	// or nil for rounds not executed. The row may alias storage of the
	// source: it is valid until the next Truth call on the same source.
	Truth(round int) []tdma.OutcomeClass
}

// AuditTheorem1 checks the three properties of the consistent health vector
// (Theorem 1) on every diagnosed round in [fromRound, toRound):
//
//   - consistency: every obedient observer produced the same vector;
//   - completeness: ground-truth benign faulty senders are diagnosed faulty;
//   - correctness: ground-truth correct senders are diagnosed healthy.
//
// Rounds with asymmetric or malicious ground truth are only checked for
// consistency, as the theorem allows either agreed verdict there. The
// obedient slice lists the observers whose outputs are trustworthy (all
// nodes, in campaigns without Byzantine protocol instances).
func AuditTheorem1(src TruthSource, col *Collector, obedient []int, fromRound, toRound int) error {
	if len(obedient) == 0 {
		return fmt.Errorf("sim: no obedient observers")
	}
	for d := fromRound; d < toRound; d++ {
		truth := src.Truth(d)
		if truth == nil {
			return fmt.Errorf("sim: no ground truth for round %d", d)
		}
		n := len(truth) - 1
		if !col.recorded(d) {
			return fmt.Errorf("sim: no health vectors recorded for round %d", d)
		}
		ref, refObs := core.BitSyndrome{}, obedient[0]
		for _, obs := range obedient {
			if obs < 1 || obs > n {
				return fmt.Errorf("sim: observer %d out of range 1..%d", obs, n)
			}
			hv := col.HV(d, obs)
			if hv.Known == 0 {
				return fmt.Errorf("sim: observer %d produced no health vector for round %d", obs, d)
			}
			if obs == refObs {
				ref = hv
			} else if hv != ref {
				return fmt.Errorf("sim: consistency violated for round %d: observer %d says %s, observer %d says %s",
					d, refObs, ref.String(n), obs, hv.String(n))
			}
		}
		for slot := 1; slot <= n; slot++ {
			switch got := ref.Get(slot); truth[slot] {
			case tdma.OutcomeBenign:
				if got != core.Faulty {
					return fmt.Errorf("sim: completeness violated: round %d node %d was benign faulty but diagnosed %v",
						d, slot, got)
				}
			case tdma.OutcomeCorrect:
				if got != core.Healthy {
					return fmt.Errorf("sim: correctness violated: round %d node %d was correct but diagnosed %v",
						d, slot, got)
				}
			}
		}
	}
	return nil
}
