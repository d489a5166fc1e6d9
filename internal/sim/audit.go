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
// and metric extraction. Install its hooks before running the engine.
type Collector struct {
	// ConsHV[diagnosedRound][observer] is the consistent health vector the
	// observer computed for that round. The outer slice covers rounds up to
	// the last diagnosed one; the inner slice is 1-based by observer and is
	// nil for rounds nobody has diagnosed, and an observer that recorded
	// nothing holds the zero vector (Known == 0). Use RoundHVs for
	// bounds-safe reads.
	ConsHV [][]core.BitSyndrome
	// Isolations and Reintegrations in decision order.
	Isolations     []Isolation
	Reintegrations []Isolation
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// Reset empties the collector for reuse in the next campaign repetition,
// keeping the recorded-round storage allocated (setHV clears it on reuse).
// A reset collector is observationally identical to a fresh one.
func (c *Collector) Reset() {
	c.ConsHV = c.ConsHV[:0]
	c.Isolations = c.Isolations[:0]
	c.Reintegrations = c.Reintegrations[:0]
}

// RoundHVs returns the health vectors recorded for a diagnosed round,
// indexed by observer (zero vectors for observers that recorded nothing), or
// nil when no observer diagnosed the round.
func (c *Collector) RoundHVs(round int) []core.BitSyndrome {
	if round < 0 || round >= len(c.ConsHV) {
		return nil
	}
	return c.ConsHV[round]
}

// HookDiag installs the collector on a DiagRunner.
func (c *Collector) HookDiag(observer int, r *DiagRunner) {
	n := r.proto.Config().N
	r.OnOutput = func(out core.RoundOutput) { c.record(observer, n, out) }
}

// HookMembership installs the collector on a MembershipRunner.
func (c *Collector) HookMembership(observer int, r *MembershipRunner) {
	n := r.svc.Protocol().Config().N
	r.OnOutput = func(out membership.Output) { c.record(observer, n, out.Diag) }
}

// setHV stores one observer's consistent health vector for a diagnosed
// round of an n-node system, growing the recorded-round storage as needed.
func (c *Collector) setHV(d, observer, n int, hv core.BitSyndrome) {
	for len(c.ConsHV) <= d {
		if len(c.ConsHV) < cap(c.ConsHV) {
			// Re-extend over storage kept by Reset: the inner slice is
			// already allocated, so clear and reuse it.
			c.ConsHV = c.ConsHV[:len(c.ConsHV)+1]
			clear(c.ConsHV[len(c.ConsHV)-1])
		} else {
			c.ConsHV = append(c.ConsHV, nil)
		}
	}
	if len(c.ConsHV[d]) != n+1 {
		c.ConsHV[d] = make([]core.BitSyndrome, n+1)
	}
	c.ConsHV[d][observer] = hv
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

// record is the shared body of the per-run hooks (the lane-packed batch
// cluster calls setHV and addDecisions per lane).
func (c *Collector) record(observer, n int, out core.RoundOutput) {
	if out.ConsHV.Known != 0 {
		c.setHV(out.DiagnosedRound, observer, n, out.ConsHV)
	}
	c.addDecisions(observer, out.Round, out.Isolated, out.Reintegrated)
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
	// or nil for rounds not executed. The row may alias run-owned storage —
	// callers must not retain it across runs.
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
		byObs := col.RoundHVs(d)
		if byObs == nil {
			return fmt.Errorf("sim: no health vectors recorded for round %d", d)
		}
		ref, refObs := core.BitSyndrome{}, obedient[0]
		for _, obs := range obedient {
			if obs < 1 || obs > n || obs >= len(byObs) {
				return fmt.Errorf("sim: observer %d out of range 1..%d", obs, n)
			}
			hv := byObs[obs]
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
