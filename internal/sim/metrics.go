package sim

import (
	"ttdiag/internal/metrics"
	"ttdiag/internal/tdma"
)

// RunMetrics bundles the per-run system-level instruments of one simulated
// cluster: ground-truth transmission outcomes (the collision counts of the
// Customizable Fault-Effect Model), isolation latency in rounds, and
// membership view changes. Like core.StepMetrics, every field is optional
// and a nil *RunMetrics is a complete no-op, so campaign code can call the
// observers unconditionally.
type RunMetrics struct {
	// Ground-truth transmission outcome counts (tdma.OutcomeClass): TxBenign
	// is the bus-collision count — locally detectable corrupted
	// transmissions — while TxMalicious/TxAsymmetric count the undetectable
	// and two-faced ones.
	TxCorrect    *metrics.Counter
	TxBenign     *metrics.Counter
	TxMalicious  *metrics.Counter
	TxAsymmetric *metrics.Counter
	// IsolationLatency observes, for every node an observer isolated, the
	// distance in rounds from the node's first ground-truth fault to the
	// isolation decision.
	IsolationLatency *metrics.Histogram
	// ViewChanges counts installed membership view transitions, summed over
	// the observing nodes (the initial view is not a transition).
	ViewChanges *metrics.Counter
}

// isolationLatencyBounds are the histogram bucket bounds, in rounds; the
// paper's detection latencies are a handful of rounds, so the buckets
// resolve that range and fold everything slower into overflow.
var isolationLatencyBounds = []int64{2, 4, 8, 16, 32, 64}

// NewRunMetrics wires a RunMetrics to the registry under the standard
// system instrument names. A nil registry yields all-nil (no-op)
// instruments.
func NewRunMetrics(reg *metrics.Registry) *RunMetrics {
	return &RunMetrics{
		TxCorrect:        reg.Counter("tx/correct"),
		TxBenign:         reg.Counter("tx/benign"),
		TxMalicious:      reg.Counter("tx/malicious"),
		TxAsymmetric:     reg.Counter("tx/asymmetric"),
		IsolationLatency: reg.Histogram("pr/isolation_latency_rounds", isolationLatencyBounds...),
		ViewChanges:      reg.Counter("membership/view_changes"),
	}
}

// ObserveTruth folds the run's ground-truth transmission classification
// of every executed round into the outcome counters. It accepts any
// TruthSource — the lock-step engine or one lane of a batched cluster.
func (m *RunMetrics) ObserveTruth(src TruthSource) {
	if m == nil {
		return
	}
	var count [tdma.OutcomeAsymmetric + 1]int64 // by class
	for round := 0; round < src.Round(); round++ {
		truth := src.Truth(round)
		for slot := 1; slot < len(truth); slot++ {
			count[truth[slot]]++
		}
	}
	m.TxCorrect.Add(count[tdma.OutcomeCorrect])
	m.TxBenign.Add(count[tdma.OutcomeBenign])
	m.TxMalicious.Add(count[tdma.OutcomeMalicious])
	m.TxAsymmetric.Add(count[tdma.OutcomeAsymmetric])
}

// ObserveIsolationLatency observes, for every node the collector saw
// isolated, the rounds elapsed between the node's first ground-truth
// non-correct transmission and its first isolation decision. A node
// isolated without any ground-truth fault on record (a false conviction —
// the audits would flag it) is observed with latency 0 so it still shows up
// in the histogram count.
func (m *RunMetrics) ObserveIsolationLatency(src TruthSource, col *Collector) {
	if m == nil || col == nil || src.Round() == 0 {
		return
	}
	// Every truth row spans slots 1..N, so the system width falls out of the
	// first executed round without needing the schedule.
	n := len(src.Truth(0)) - 1
	for id := 1; id <= n; id++ {
		iso := col.FirstIsolation(id)
		if iso < 0 {
			continue
		}
		latency := 0
		if fault := firstFaultRound(src, id); fault >= 0 && fault <= iso {
			latency = iso - fault
		}
		m.IsolationLatency.Observe(int64(latency))
	}
}

// firstFaultRound returns the first executed round in which node id's
// transmission was classified non-correct by the ground truth, -1 if none.
func firstFaultRound(src TruthSource, id int) int {
	for round := 0; round < src.Round(); round++ {
		truth := src.Truth(round)
		if id < len(truth) {
			if c := truth[id]; c != 0 && c != tdma.OutcomeCorrect {
				return round
			}
		}
	}
	return -1
}

// ObserveViews adds every runner's installed view transitions (history
// length minus the initial view) to the view-change counter.
func (m *RunMetrics) ObserveViews(runners []*MembershipRunner) {
	if m == nil {
		return
	}
	for _, r := range runners {
		if r == nil {
			continue
		}
		if h := len(r.Service().History()); h > 1 {
			m.ViewChanges.Add(int64(h - 1))
		}
	}
}
