package sim

import (
	"ttdiag/internal/core"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/tdma"
)

// LowLatRunner adapts a lowlat.Node to the engine: the per-round job (which
// must be scheduled at position id-1, right before the node's own slot)
// stages the rolling syndrome, and every completed slot is fed to the
// per-slot analysis pipeline.
type LowLatRunner struct {
	node *lowlat.Node
	// OnVerdict, when set, observes every decided per-slot verdict.
	OnVerdict func(lowlat.Verdict)
}

var (
	_ Runner       = (*LowLatRunner)(nil)
	_ SlotObserver = (*LowLatRunner)(nil)
)

// NewLowLatRunner builds the runner and its node state machine.
func NewLowLatRunner(cfg lowlat.Config) (*LowLatRunner, error) {
	node, err := lowlat.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return &LowLatRunner{node: node}, nil
}

// Node returns the wrapped low-latency state machine.
func (r *LowLatRunner) Node() *lowlat.Node { return r.node }

// Run implements Runner: stage the current rolling syndrome.
func (r *LowLatRunner) Run(_ int, ctrl *tdma.Controller) ([]byte, error) {
	out := r.node.Outgoing().Encode()
	r.node.TickRound()
	cfg := r.node.Config()
	applyActivity(ctrl, cfg.N, r.node.PenaltyReward().ActiveMask(), cfg.PR.ReintegrationThreshold > 0)
	return out, nil
}

// OnSlotComplete implements SlotObserver: feed the slot observation to the
// analysis pipeline.
func (r *LowLatRunner) OnSlotComplete(round, slot int, ctrl *tdma.Controller) error {
	n := r.node.Config().N
	payload, valid := ctrl.ReadValue(tdma.NodeID(slot))
	var syn core.Syndrome
	if valid {
		s, err := core.DecodeSyndrome(payload, n)
		if err != nil {
			valid = false
		} else {
			syn = s
		}
	}
	in := lowlat.SlotInput{
		Round:   round,
		Slot:    slot,
		Valid:   valid,
		Payload: syn,
		Collision: func(r int) core.Opinion {
			if collided, ok := ctrl.Collision(r); ok && collided {
				return core.Faulty
			}
			return core.Healthy
		},
	}
	v, err := r.node.OnSlot(in)
	if err != nil {
		return err
	}
	if v != nil && r.OnVerdict != nil {
		r.OnVerdict(*v)
	}
	return nil
}

// NewLowLatCluster wires an engine with one LowLatRunner per node, using the
// constrained staircase schedule the variant requires.
func NewLowLatCluster(cfg ClusterConfig) (*Engine, []*LowLatRunner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	sched, err := newSchedule(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := NewEngine(sched, cfg.Sink)
	runners := make([]*LowLatRunner, cfg.N+1)
	for id := 1; id <= cfg.N; id++ {
		r, err := NewLowLatRunner(lowlat.Config{N: cfg.N, ID: id, Mode: cfg.Mode, PR: cfg.PR})
		if err != nil {
			return nil, nil, err
		}
		// The low-latency variant constrains the node schedule: the job
		// runs right before the node's own slot.
		if err := eng.AddNode(tdmaID(id), id-1, r); err != nil {
			return nil, nil, err
		}
		runners[id] = r
	}
	bootstrapOutboxes(eng, cfg.N)
	return eng, runners, nil
}
