// Package bisect localizes the first divergent round between two
// re-executable cluster variants — typically two runs whose fault processes
// differ in a single round — in O(log R) re-executed segments instead of a
// full side-by-side replay. It rides on
// sim.ClusterCheckpoint: the search keeps one checkpoint per side at the last
// round whose states still agreed, restores both sides there, runs to the
// probe midpoint, and compares full-cluster fingerprints (every node's
// protocol snapshot, controller interface state, and the engine's
// ground-truth record). Once the window has shrunk to one round, both sides
// are rewound a final time and that round is re-executed with the causal
// flight recorders drained, so the report carries exactly the events each
// side emitted while diverging.
//
// The caller owns the scenario: both clusters arrive freshly reset at round 0
// with their disturbances installed. Because ClusterCheckpoint deliberately
// does not capture bus disturbances, the installed fault processes must be
// stateless functions of the absolute round (fault.Crash, fault.EveryKthRound,
// fault.SlotBurst trains, ...) — a stateful disturbance would replay
// differently across probe segments and break the search invariant.
package bisect

import (
	"bytes"
	"fmt"

	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// Side is one re-executable variant under comparison.
type Side struct {
	// Name labels the side in error messages and reports.
	Name string
	// Cluster is the variant's lock-step cluster, freshly reset at round 0
	// with its (stateless) disturbances installed.
	Cluster *sim.DiagCluster
	// Rec, when non-nil, is the recorder wired as the cluster's causal sink
	// (ClusterConfig.Sink). The search resets it at every rewind; after a
	// divergence is localized it holds only the divergent round's events,
	// which the report copies out.
	Rec *trace.Recorder
}

// Report is the outcome of one bisection.
type Report struct {
	// Diverged reports whether the two sides' states differ anywhere within
	// the searched horizon.
	Diverged bool
	// Round is the 0-based engine round whose execution first drives the two
	// sides apart (the states agree after Round rounds and differ after
	// Round+1); -1 when the sides never diverge.
	Round int
	// Node is the lowest node ID whose protocol-or-controller state differs
	// after the divergent round, or 0 when only the engine's ground-truth
	// record differs (a disturbance that no protocol has observed yet).
	Node int
	// Probes counts the re-executed segments per side: the full-horizon
	// divergence check plus one segment per bisection step, at most
	// 1 + ceil(log2(rounds)). The final single-round replay that collects
	// the causal dump is constant work and not counted.
	Probes int
	// EventsA and EventsB are the causal events each side emitted while
	// executing the divergent round (empty unless the side has a recorder).
	EventsA, EventsB []trace.Event
}

// FirstDivergence binary-searches the first round within [0, rounds) whose
// execution drives sides a and b apart. Both clusters are left positioned
// just past the divergent round (or past the full horizon when the sides
// never diverge); rerun Reset before reusing them for anything else.
func FirstDivergence(a, b Side, rounds int) (*Report, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("bisect: need at least 1 round, got %d", rounds)
	}
	ca, cb := a.Cluster, b.Cluster
	if ca == nil || cb == nil {
		return nil, fmt.Errorf("bisect: both sides need a cluster")
	}
	if na, nb := ca.Config().N, cb.Config().N; na != nb {
		return nil, fmt.Errorf("bisect: side %q has N=%d, side %q has N=%d", a.Name, na, b.Name, nb)
	}
	if ra, rb := ca.Eng.Round(), cb.Eng.Round(); ra != 0 || rb != 0 {
		return nil, fmt.Errorf("bisect: sides must start at round 0, got %d and %d", ra, rb)
	}
	sa, err := sideState(ca)
	if err != nil {
		return nil, fmt.Errorf("bisect: side %q: %w", a.Name, err)
	}
	sb, err := sideState(cb)
	if err != nil {
		return nil, fmt.Errorf("bisect: side %q: %w", b.Name, err)
	}
	if firstDiff(sa, sb) >= 0 {
		return nil, fmt.Errorf("bisect: sides %q and %q already differ at round 0 — not variants of one scenario", a.Name, b.Name)
	}

	ckA, err := sim.NewClusterCheckpoint(ca)
	if err != nil {
		return nil, err
	}
	ckB, err := sim.NewClusterCheckpoint(cb)
	if err != nil {
		return nil, err
	}
	capture := func() error {
		if err := ckA.Capture(ca); err != nil {
			return err
		}
		return ckB.Capture(cb)
	}
	rewind := func() error {
		if err := ckA.Restore(ca); err != nil {
			return err
		}
		if err := ckB.Restore(cb); err != nil {
			return err
		}
		if a.Rec != nil {
			a.Rec.Reset()
		}
		if b.Rec != nil {
			b.Rec.Reset()
		}
		return nil
	}
	rep := &Report{}
	// agree reruns the next k rounds on both sides and compares fingerprints.
	agree := func(k int) (bool, error) {
		rep.Probes++
		if err := ca.Eng.RunRounds(k); err != nil {
			return false, fmt.Errorf("bisect: side %q: %w", a.Name, err)
		}
		if err := cb.Eng.RunRounds(k); err != nil {
			return false, fmt.Errorf("bisect: side %q: %w", b.Name, err)
		}
		if sa, err = sideState(ca); err != nil {
			return false, err
		}
		if sb, err = sideState(cb); err != nil {
			return false, err
		}
		return firstDiff(sa, sb) < 0, nil
	}

	if err := capture(); err != nil {
		return nil, err
	}
	same, err := agree(rounds)
	if err != nil {
		return nil, err
	}
	if same {
		rep.Round = -1
		return rep, nil
	}
	rep.Diverged = true

	// Invariant: the checkpoints hold both sides at round lo with equal
	// states; the states after hi rounds differ.
	lo, hi := 0, rounds
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if err := rewind(); err != nil {
			return nil, err
		}
		same, err := agree(mid - lo)
		if err != nil {
			return nil, err
		}
		if same {
			if err := capture(); err != nil {
				return nil, err
			}
			lo = mid
		} else {
			hi = mid
		}
	}
	rep.Round = lo

	// Final replay: rewind to the last agreeing boundary and execute just the
	// divergent round with the flight recorders drained, so the dump holds
	// exactly the causal events of the divergence.
	if err := rewind(); err != nil {
		return nil, err
	}
	if err := ca.Eng.RunRound(); err != nil {
		return nil, fmt.Errorf("bisect: side %q: %w", a.Name, err)
	}
	if err := cb.Eng.RunRound(); err != nil {
		return nil, fmt.Errorf("bisect: side %q: %w", b.Name, err)
	}
	if a.Rec != nil {
		rep.EventsA = append(rep.EventsA, a.Rec.Events()...)
	}
	if b.Rec != nil {
		rep.EventsB = append(rep.EventsB, b.Rec.Events()...)
	}
	if sa, err = sideState(ca); err != nil {
		return nil, err
	}
	if sb, err = sideState(cb); err != nil {
		return nil, err
	}
	if firstDiff(sa, sb) < 0 {
		// The search narrowed to one round, so its replay must diverge;
		// anything else means a side's disturbances are not round-stateless.
		return nil, fmt.Errorf("bisect: round %d replayed identically — are the disturbances stateless?", lo)
	}
	rep.Node = 0
	for id := 1; id < len(sa); id++ {
		if !bytes.Equal(sa[id], sb[id]) {
			rep.Node = id
			break
		}
	}
	return rep, nil
}

// sideState fingerprints everything a divergence can live in, index-addressed
// for attribution: entry 0 is the engine's ground-truth record, entry id is
// node id's protocol snapshot plus controller interface state.
func sideState(c *sim.DiagCluster) ([][]byte, error) {
	n := c.Config().N
	state := make([][]byte, n+1)
	var truth bytes.Buffer
	for round := 0; round < c.Eng.Round(); round++ {
		for _, cls := range c.Eng.Truth(round) {
			truth.WriteByte(byte(cls))
		}
	}
	state[0] = truth.Bytes()
	for id := 1; id <= n; id++ {
		snap, err := c.Runners[id].Protocol().Snapshot()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		var buf bytes.Buffer
		buf.Write(snap)
		ctrl := c.Eng.Controller(tdma.NodeID(id))
		for j := 1; j <= n; j++ {
			v, ok := ctrl.ReadValue(tdma.NodeID(j))
			buf.WriteByte(boolByte(ok))
			buf.WriteByte(boolByte(ctrl.Ignored(tdma.NodeID(j))))
			buf.Write(v)
			buf.WriteByte(0xFF)
		}
		buf.Write(ctrl.Outbox())
		state[id] = buf.Bytes()
	}
	return state, nil
}

// firstDiff returns the lowest index whose entries differ, or -1 when the two
// states are identical.
func firstDiff(a, b [][]byte) int {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
