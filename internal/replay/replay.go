// Package replay re-simulates a recorded run from its flight-recorder trace.
// The diagnosis is a deterministic function of what each node observes on
// the bus, and a trace's transmit events (schema 3) record every departure
// from a clean broadcast: the receivers whose delivery was invalid, the
// altered payload and the sender-side collision verdict. A diagnostic
// cluster run under exactly those departures is therefore the recorded run:
// with the recorded tuning it reproduces every node's outputs and the trace
// itself, and with another penalty/reward tuning it shows what the whole
// cluster would have decided instead. The replay runs on a one-lane
// sim.BatchDiagCluster, the engine every campaign runs on, so builds with
// the ttdiag_invariants tag check Theorem 1 agreement on every replayed
// round.
package replay

import (
	"fmt"

	"ttdiag/internal/core"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
)

// deviation is one recorded transmission's departure from a clean
// broadcast.
type deviation struct {
	invalid   uint64 // receivers whose delivery was invalid (bit r-1)
	collision bool
	payload   []byte // bytes the accepting receivers observed; nil if unaltered
}

// recording reproduces a trace's transmissions: entry round·N + slot−1 of
// devs holds the deviation of that slot's transmission. It is the
// tdma.Blinder half of the replay — the invalid receivers and the sender's
// collision verdict — and its alteration the receiver-uniform half, the
// altered payload: the gang never asks a Blinder to Deliver.
type recording struct {
	n    int
	devs []deviation
}

var _ tdma.Blinder = (*recording)(nil)

func (r *recording) dev(tx *tdma.Transmission) *deviation {
	return &r.devs[tx.Round*r.n+tx.Slot-1]
}

// Blinded implements tdma.Blinder.
func (r *recording) Blinded(tx *tdma.Transmission) uint64 { return r.dev(tx).invalid }

// Deliver implements tdma.Disturbance.
func (r *recording) Deliver(tx *tdma.Transmission, rcv tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if r.Blinded(tx)&tdma.ReceiverBit(rcv) != 0 {
		return tdma.Delivery{}
	}
	return d
}

// SenderCollision implements tdma.Disturbance.
func (r *recording) SenderCollision(tx *tdma.Transmission, collided bool) bool {
	return collided || r.dev(tx).collision
}

// alteration applies a recording's altered payloads. It holds the
// recording in a named field: embedded, the recording's Blinded would make
// it a tdma.Blinder too.
type alteration struct{ rec *recording }

// Deliver implements tdma.Disturbance.
func (a alteration) Deliver(tx *tdma.Transmission, _ tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if p := a.rec.dev(tx).payload; p != nil {
		d.Payload = p
	}
	return d
}

// SenderCollision implements tdma.Disturbance.
func (alteration) SenderCollision(_ *tdma.Transmission, collided bool) bool { return collided }

// record builds the recording of an n-node trace and returns it with the
// number of recorded rounds. Every slot of every round from 0 to the last
// must be recorded exactly once, and a faulty outcome class must come with
// the deviations that explain it (a trace older than schema 3 has none).
func record(events []trace.Event, n int) (*recording, int, error) {
	count, last := 0, -1
	for _, e := range events {
		if e.Kind != trace.KindTransmit {
			continue
		}
		if e.Round < 0 || e.Node < 1 {
			return nil, 0, fmt.Errorf("replay: transmit event of node %d in round %d", e.Node, e.Round)
		}
		count++
		last = max(last, e.Round)
	}
	rounds := last + 1
	if count%n != 0 || count/n != rounds {
		return nil, 0, fmt.Errorf("replay: trace holds %d transmissions, want %d slots in each of %d rounds", count, n, rounds)
	}
	rec := &recording{n: n, devs: make([]deviation, count)}
	seen := make([]bool, count)
	for _, e := range events {
		if e.Kind != trace.KindTransmit {
			continue
		}
		i := e.Round*n + e.Node - 1
		if seen[i] {
			return nil, 0, fmt.Errorf("replay: slot %d of round %d recorded twice", e.Node, e.Round)
		}
		seen[i] = true
		unexplained := e.Payload == "" && e.Detail == tdma.OutcomeMalicious.String() ||
			e.Invalid == 0 && (e.Detail == tdma.OutcomeBenign.String() || e.Detail == tdma.OutcomeAsymmetric.String())
		if unexplained {
			return nil, 0, fmt.Errorf("replay: round %d slot %d: %s transmission without its recorded deviations (a trace older than schema 3?)", e.Round, e.Node, e.Detail)
		}
		rec.devs[i] = deviation{invalid: e.Invalid, collision: e.Collision}
		if e.Payload != "" {
			rec.devs[i].payload = []byte(e.Payload)
		}
	}
	return rec, rounds, nil
}

// Layout reads the system size and the job positions of a recorded run: N
// is the highest transmitting node, and node i's position l_i is the number
// of transmissions its round holds before its job (a job at position l runs
// right after slot l).
func Layout(events []trace.Event) (n int, ls []int, err error) {
	for _, e := range events {
		if e.Kind == trace.KindTransmit {
			n = max(n, e.Node)
		}
	}
	if n < 2 || n > core.MaxPackedN {
		return 0, nil, fmt.Errorf("replay: trace transmissions name %d nodes, want 2..%d", n, core.MaxPackedN)
	}
	ls = make([]int, n)
	for i := range ls {
		ls[i] = -1
	}
	round, sent := 0, 0
	for _, e := range events {
		if e.Kind != trace.KindTransmit && e.Kind != trace.KindJobRun {
			continue
		}
		if e.Round != round {
			round, sent = e.Round, 0
		}
		if e.Kind == trace.KindTransmit {
			sent++
			continue
		}
		switch {
		case e.Node < 1 || e.Node > n:
			return 0, nil, fmt.Errorf("replay: job of node %d in a %d-node trace", e.Node, n)
		case ls[e.Node-1] < 0:
			ls[e.Node-1] = sent
		case ls[e.Node-1] != sent:
			return 0, nil, fmt.Errorf("replay: node %d runs its job at positions %d and %d", e.Node, ls[e.Node-1], sent)
		}
	}
	for i, l := range ls {
		if l < 0 {
			return 0, nil, fmt.Errorf("replay: trace holds no job of node %d", i+1)
		}
	}
	return n, ls, nil
}

// RoundDiagnosis is one reconstructed per-round outcome at one observer.
type RoundDiagnosis struct {
	// Round is the execution round, DiagnosedRound the round the vector
	// refers to.
	Round, DiagnosedRound int
	// ConsHV is the reconstructed consistent health vector.
	ConsHV core.BitSyndrome
	// Isolated marks the isolation decisions taken in this round (bit j-1 =
	// node j).
	Isolated uint64
}

// Replay re-simulates one recorded repetition of a diagnostic-mode run on
// a one-lane sim.BatchDiagCluster of cfg (forced to core.ModeDiagnostic)
// and returns observer's diagnoses, one per warm round. cfg.N and cfg.Ls
// must match the trace (see Layout); the penalty/reward tuning is free, so
// a tuning other than the recorded one is a whole-cluster counterfactual.
// Once the run is done, Replay writes its events to cfg.Sink, the same
// events every cluster builder records.
func Replay(events []trace.Event, cfg sim.ClusterConfig, observer int) ([]RoundDiagnosis, error) {
	n, ls, err := Layout(events)
	if err != nil {
		return nil, err
	}
	// The configuration is checked before the gang is built: a mismatched N
	// may not even divide the round into slots.
	norm, err := sim.NormalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	if norm.N != n {
		return nil, fmt.Errorf("replay: trace covers %d nodes, config %d", n, norm.N)
	}
	for i, l := range ls {
		if norm.Ls[i] != l {
			return nil, fmt.Errorf("replay: trace runs node %d's job at position %d, config at %d", i+1, l, norm.Ls[i])
		}
	}
	if observer < 1 || observer > n {
		return nil, fmt.Errorf("replay: observer %d out of range 1..%d", observer, n)
	}
	rec, rounds, err := record(events, n)
	if err != nil {
		return nil, err
	}
	cfg.Mode = core.ModeDiagnostic
	cl, err := sim.NewOneLaneCluster(cfg, rounds)
	if err != nil {
		return nil, err
	}
	cl.AddLaneDisturbance(0, rec)
	cl.AddLaneDisturbance(0, alteration{rec: rec})
	var out []RoundDiagnosis
	cl.OnOutput = func(id int, o *core.BatchRoundOutput) {
		if hv := o.LaneConsHV(0, n); id == observer && hv.Known != 0 {
			out = append(out, RoundDiagnosis{
				Round:          o.Round,
				DiagnosedRound: o.DiagnosedRound,
				ConsHV:         hv,
				Isolated:       o.LaneIsolated(0, n),
			})
		}
	}
	err = cl.Run()
	cl.FlushLaneTrace(0)
	if err != nil {
		return nil, err
	}
	return out, nil
}
