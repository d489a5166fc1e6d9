package sim

import (
	"fmt"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/trace"
)

// DefaultRoundLen is the TDMA round length of the paper's prototype (2.5 ms).
const DefaultRoundLen = 2500 * time.Microsecond

// ClusterConfig describes a homogeneous protocol cluster.
type ClusterConfig struct {
	// N is the number of nodes; 0 defaults to the paper's 4-node prototype.
	N int
	// RoundLen is the TDMA round length; 0 defaults to 2.5 ms.
	RoundLen time.Duration
	// SlotLens, when set, declares per-slot durations (heterogeneous frame
	// lengths); it overrides RoundLen and must have N entries.
	SlotLens []time.Duration
	// Ls[i] (0-based, node i+1) is each node's diagnostic-job position l_i.
	// nil defaults to the staircase schedule (job right before the node's
	// own slot), under which every node satisfies send_curr_round.
	Ls []int
	// AllSendCurrRound declares the design-time knowledge that every node's
	// job completes before its slot, shrinking the detection latency by one
	// round. It must be consistent with Ls.
	AllSendCurrRound bool
	// PR tunes the penalty/reward algorithm. Zero thresholds default to
	// "never isolate, never forget" (both thresholds practically infinite),
	// which is convenient for pure detection experiments.
	PR core.PRConfig
	// Mode selects diagnostic or membership behaviour for DiagRunner-based
	// clusters (NewDiagnosticCluster forces ModeDiagnostic).
	Mode core.Mode
	// Sink receives trace events; nil discards them. Besides the engine's
	// transmit/job events, a non-nil sink also receives node 1's causal
	// flight-recorder stream (accusations, penalty changes, isolations,
	// reintegrations — see core.StepTrace) and, in membership clusters, view
	// changes. One observer suffices: Theorem 1 consistency makes every
	// obedient node's causal transitions identical.
	Sink trace.Sink
}

func (c ClusterConfig) withDefaults() (ClusterConfig, error) {
	if c.N == 0 {
		c.N = 4
	}
	if c.N < 2 {
		return c, fmt.Errorf("sim: cluster needs at least 2 nodes, got %d", c.N)
	}
	if c.N > core.MaxPackedN {
		return c, core.ErrBeyondPackedBound
	}
	if c.RoundLen == 0 {
		c.RoundLen = DefaultRoundLen
	}
	if c.Ls == nil {
		c.Ls = Staircase(c.N)
	}
	if len(c.Ls) != c.N {
		return c, fmt.Errorf("sim: Ls has %d entries, want %d", len(c.Ls), c.N)
	}
	if c.AllSendCurrRound {
		for i, l := range c.Ls {
			if l >= i+1 {
				return c, fmt.Errorf("sim: AllSendCurrRound set but node %d has l=%d (job after its slot)", i+1, l)
			}
		}
	}
	if c.PR.PenaltyThreshold == 0 && c.PR.RewardThreshold == 0 {
		c.PR.PenaltyThreshold = 1 << 50
		c.PR.RewardThreshold = 1 << 50
	}
	return c, nil
}

// Staircase returns the schedule in which every node's job runs right before
// its own sending slot (l_i = i-1): the lowest-latency add-on configuration,
// satisfying send_curr_round everywhere.
func Staircase(n int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = i
	}
	return ls
}

// Uniform returns the schedule in which every node's job runs at the same
// position l.
func Uniform(n, l int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = l
	}
	return ls
}

// NormalizeConfig applies the defaulting and validation rules of the
// cluster builders. It is exported so that the concurrent runtime accepts
// exactly the same configurations as the lock-step engine.
func NormalizeConfig(cfg ClusterConfig) (ClusterConfig, error) {
	return cfg.withDefaults()
}

// NodeConfig derives node id's protocol configuration from a (normalized)
// cluster configuration, shared with the concurrent runtime.
func NodeConfig(cfg ClusterConfig, id int) core.Config {
	return cfg.nodeConfig(id)
}

// nodeConfig derives node id's protocol configuration from the cluster
// configuration.
func (c ClusterConfig) nodeConfig(id int) core.Config {
	l := c.Ls[id-1]
	return core.Config{
		N:                c.N,
		ID:               id,
		L:                l,
		SendCurrRound:    l < id,
		AllSendCurrRound: c.AllSendCurrRound,
		Mode:             c.Mode,
		PR:               c.PR,
	}
}

// NewDiagnosticCluster wires an engine with one DiagRunner per node.
func NewDiagnosticCluster(cfg ClusterConfig) (*Engine, []*DiagRunner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	cfg.Mode = core.ModeDiagnostic
	sched, err := newSchedule(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := NewEngine(sched, cfg.Sink)
	runners := make([]*DiagRunner, cfg.N+1)
	for id := 1; id <= cfg.N; id++ {
		r, err := NewDiagRunner(cfg.nodeConfig(id))
		if err != nil {
			return nil, nil, err
		}
		if err := eng.AddNode(tdmaID(id), cfg.Ls[id-1], r); err != nil {
			return nil, nil, err
		}
		runners[id] = r
	}
	if cfg.Sink != nil {
		// Node 1 carries the causal flight recorder (one observer — see the
		// Sink field); the attachment survives runner resets.
		runners[1].Protocol().SetTrace(core.NewStepTrace(cfg.Sink))
	}
	bootstrapOutboxes(eng, cfg.N)
	return eng, runners, nil
}

// bootstrapOutboxes stages an initial all-healthy syndrome in every
// controller so that slots transmitted before the node's first diagnostic-job
// execution carry a valid payload (the middleware initialises its interface
// variable before the communication schedule starts).
func bootstrapOutboxes(eng *Engine, n int) {
	initial := core.NewSyndrome(n, core.Healthy).Encode()
	for id := 1; id <= n; id++ {
		eng.Controller(tdmaID(id)).WriteInterface(initial)
	}
}

// DiagCluster is a reusable diagnostic cluster: one engine plus one
// DiagRunner per node, built once and then reset between campaign
// repetitions, so that the steady state of a Monte-Carlo campaign performs no
// per-repetition wiring allocations.
type DiagCluster struct {
	Eng     *Engine
	Runners []*DiagRunner // 1-based; entry 0 is nil
	cfg     ClusterConfig // normalized; Ls is cluster-owned
	initial []byte        // bootstrap payload staged on every reset
}

// NewReusableDiagnosticCluster builds a diagnostic cluster intended for
// reuse via Reset / ResetLs.
func NewReusableDiagnosticCluster(cfg ClusterConfig) (*DiagCluster, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	norm.Mode = core.ModeDiagnostic
	eng, runners, err := NewDiagnosticCluster(cfg)
	if err != nil {
		return nil, err
	}
	norm.Ls = append([]int(nil), norm.Ls...)
	return &DiagCluster{
		Eng:     eng,
		Runners: runners,
		cfg:     norm,
		initial: core.NewSyndrome(norm.N, core.Healthy).Encode(),
	}, nil
}

// Config returns the cluster's normalized configuration.
func (c *DiagCluster) Config() ClusterConfig { return c.cfg }

// Reset rewinds the cluster to its freshly built state for the next
// repetition: engine ground truth and disturbances are discarded, every
// protocol restarts its warm-up, observers are detached and the bootstrap
// payloads are re-staged. No allocations are needed.
func (c *DiagCluster) Reset() {
	c.Eng.ResetForRun()
	for id := 1; id <= c.cfg.N; id++ {
		c.Runners[id].ResetForRun()
		c.Eng.Controller(tdmaID(id)).WriteInterface(c.initial)
	}
}

// ResetLs is Reset with a new internal schedule: every node's
// diagnostic-job position is re-pinned to ls[i] (0-based, node i+1) and its
// protocol reconfigured accordingly — the per-repetition random schedules of
// the resilience experiments without rebuilding the cluster.
func (c *DiagCluster) ResetLs(ls []int) error {
	if len(ls) != c.cfg.N {
		return fmt.Errorf("sim: ResetLs got %d positions, want %d", len(ls), c.cfg.N)
	}
	for i, l := range ls {
		if l < 0 || l > c.cfg.N-1 {
			return fmt.Errorf("sim: node %d job position %d out of range 0..%d", i+1, l, c.cfg.N-1)
		}
		if c.cfg.AllSendCurrRound && l >= i+1 {
			return fmt.Errorf("sim: AllSendCurrRound set but node %d has l=%d (job after its slot)", i+1, l)
		}
	}
	copy(c.cfg.Ls, ls)
	c.Eng.ResetForRun()
	for id := 1; id <= c.cfg.N; id++ {
		if err := c.Runners[id].ResetConfig(c.cfg.nodeConfig(id)); err != nil {
			return err
		}
		if err := c.Eng.SetNodePosition(tdmaID(id), ls[id-1]); err != nil {
			return err
		}
		c.Eng.Controller(tdmaID(id)).WriteInterface(c.initial)
	}
	return nil
}

// MembershipCluster is the reusable counterpart of NewMembershipCluster.
type MembershipCluster struct {
	Eng     *Engine
	Runners []*MembershipRunner // 1-based; entry 0 is nil
	cfg     ClusterConfig
	initial []byte
}

// NewReusableMembershipCluster builds a membership cluster intended for
// reuse via Reset.
func NewReusableMembershipCluster(cfg ClusterConfig) (*MembershipCluster, error) {
	norm, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	norm.Mode = core.ModeMembership
	eng, runners, err := NewMembershipCluster(cfg)
	if err != nil {
		return nil, err
	}
	norm.Ls = append([]int(nil), norm.Ls...)
	return &MembershipCluster{
		Eng:     eng,
		Runners: runners,
		cfg:     norm,
		initial: core.NewSyndrome(norm.N, core.Healthy).Encode(),
	}, nil
}

// Config returns the cluster's normalized configuration.
func (c *MembershipCluster) Config() ClusterConfig { return c.cfg }

// Reset rewinds the cluster to its freshly built state for the next
// repetition (see DiagCluster.Reset).
func (c *MembershipCluster) Reset() {
	c.Eng.ResetForRun()
	for id := 1; id <= c.cfg.N; id++ {
		c.Runners[id].ResetForRun()
		c.Eng.Controller(tdmaID(id)).WriteInterface(c.initial)
	}
}

// NewMembershipCluster wires an engine with one MembershipRunner per node.
func NewMembershipCluster(cfg ClusterConfig) (*Engine, []*MembershipRunner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	cfg.Mode = core.ModeMembership
	sched, err := newSchedule(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := NewEngine(sched, cfg.Sink)
	runners := make([]*MembershipRunner, cfg.N+1)
	for id := 1; id <= cfg.N; id++ {
		r, err := NewMembershipRunner(cfg.nodeConfig(id))
		if err != nil {
			return nil, nil, err
		}
		if err := eng.AddNode(tdmaID(id), cfg.Ls[id-1], r); err != nil {
			return nil, nil, err
		}
		runners[id] = r
	}
	if cfg.Sink != nil {
		// Node 1 carries the causal flight recorder and announces view
		// changes (one observer — see the Sink field).
		runners[1].Service().Protocol().SetTrace(core.NewStepTrace(cfg.Sink))
		runners[1].sink = cfg.Sink
	}
	bootstrapOutboxes(eng, cfg.N)
	return eng, runners, nil
}
