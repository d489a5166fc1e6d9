// Package ttdiag is a tunable add-on diagnostic and membership protocol for
// time-triggered (TT) systems, reproducing "A Tunable Add-On Diagnostic
// Protocol for Time-Triggered Systems" (Serafini et al., DSN 2007).
//
// The protocol runs as an application-level middleware module on every node
// of a TDMA cluster. Each node broadcasts, once per round, an N-bit local
// syndrome describing which messages it received correctly; the syndromes
// are aggregated into a diagnostic matrix and combined with a hybrid
// majority vote into a consistent health vector that is agreed by every
// obedient node even under multiple coincident benign faults, one
// asymmetric fault and malicious syndrome sources (Theorem 1). A
// penalty/reward algorithm accumulates the agreed diagnoses, weighting
// faults by the criticality of the applications hosted on each node, so
// that external transient faults do not cost availability while internal
// intermittent faults still lead to timely isolation.
//
// The package is the public facade over the implementation packages:
//
//   - the protocol itself (Protocol, PenaltyReward, HMaj) — internal/core
//   - the membership variant with clique detection — internal/membership
//   - the low-latency system-level variant — internal/lowlat
//   - the TDMA substrate (schedule, bus, controllers) — internal/tdma
//   - fault injection (bursts, scenarios, malicious senders) — internal/fault
//   - the lock-step simulation engine and audits — internal/sim
//   - the goroutine-per-node concurrent runtime — internal/cluster
//   - penalty/reward tuning procedures — internal/tuning
//   - baselines (TTP/C membership, α-count) — internal/baseline
//
// # Quick start
//
//	eng, runners, err := ttdiag.NewSimulation(ttdiag.SimulationConfig{})
//	if err != nil { ... }
//	eng.Bus().AddDisturbance(ttdiag.SlotBurstTrain(eng.Schedule(), 6, 3, 1))
//	runners[1].OnOutput = func(out ttdiag.RoundOutput) {
//		if out.DiagnosedRound == 6 {
//			fmt.Println(out.ConsHV.String(4)) // agreed health of round 6: 1101
//		}
//	}
//	if err := eng.RunRounds(12); err != nil { ... }
//
// See examples/ for runnable walkthroughs and cmd/ttdiag-experiments for the
// full reproduction of the paper's tables and figures.
package ttdiag

import (
	"ttdiag/internal/cluster"
	"ttdiag/internal/core"
	"ttdiag/internal/fault"
	"ttdiag/internal/lowlat"
	"ttdiag/internal/membership"
	"ttdiag/internal/metrics"
	"ttdiag/internal/platform"
	"ttdiag/internal/recovery"
	"ttdiag/internal/replay"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
	"ttdiag/internal/trace"
	"ttdiag/internal/tuning"
)

// Core protocol types.
type (
	// Opinion is a node's view on another node's health (Faulty, Healthy,
	// or the ε value Erased inside diagnostic matrices).
	Opinion = core.Opinion
	// Syndrome is a 1-based vector of opinions, one per node.
	Syndrome = core.Syndrome
	// Matrix is a diagnostic matrix for one diagnosed round.
	Matrix = core.Matrix
	// Config parameterises one node's diagnostic job.
	Config = core.Config
	// PRConfig tunes the penalty/reward algorithm (thresholds P and R,
	// per-node criticality levels s_i).
	PRConfig = core.PRConfig
	// PenaltyReward is the per-node Alg. 2 state.
	PenaltyReward = core.PenaltyReward
	// Protocol is the per-node diagnostic job state machine (Alg. 1).
	Protocol = core.Protocol
	// RoundInput feeds one round of controller observations to a Protocol.
	RoundInput = core.RoundInput
	// PackedRoundInput feeds one round of already bit-packed observations to
	// a Protocol.
	PackedRoundInput = core.PackedRoundInput
	// RoundOutput is the result of one diagnostic-job execution.
	RoundOutput = core.RoundOutput
	// BitSyndrome is a syndrome packed into two 64-bit planes (opinions and
	// presence); the value representation of the word-parallel voting kernel.
	BitSyndrome = core.BitSyndrome
	// Mode selects the diagnostic or membership protocol variant.
	Mode = core.Mode
)

// Opinion values and protocol modes.
const (
	Faulty  = core.Faulty
	Healthy = core.Healthy
	Erased  = core.Erased

	ModeDiagnostic = core.ModeDiagnostic
	ModeMembership = core.ModeMembership

	// MaxPackedN is the widest flat system: one 64-bit word holds one
	// opinion per node. Wider systems are refused; internal/fleet shards
	// them into clusters of at most MaxPackedN nodes.
	MaxPackedN = core.MaxPackedN
)

// NewProtocol builds the diagnostic job for one node.
func NewProtocol(cfg Config) (*Protocol, error) { return core.NewProtocol(cfg) }

// NewPenaltyReward builds a stand-alone penalty/reward filter.
func NewPenaltyReward(n int, cfg PRConfig) (*PenaltyReward, error) {
	return core.NewPenaltyReward(n, cfg)
}

// HMaj is the hybrid majority voting function of Eqn. 1.
func HMaj(votes []Opinion) (Opinion, bool) { return core.HMaj(votes) }

// DecodeSyndrome unpacks a wire-format N-bit syndrome.
func DecodeSyndrome(data []byte, n int) (Syndrome, error) { return core.DecodeSyndrome(data, n) }

// NewSyndrome returns a syndrome for n nodes filled with the given opinion.
func NewSyndrome(n int, fill Opinion) Syndrome { return core.NewSyndrome(n, fill) }

// PackSyndrome packs a byte-per-entry syndrome into its two-plane bit
// representation (len(s)-1 <= MaxPackedN nodes).
func PackSyndrome(s Syndrome) (BitSyndrome, error) { return core.PackSyndrome(s) }

// PlaneMask returns the presence mask covering nodes 1..n, i.e. the low n
// bits set.
func PlaneMask(n int) uint64 { return core.PlaneMask(n) }

// Membership service (Sec. 7).
type (
	// MembershipService is the group membership service: the modified
	// diagnostic protocol plus view management.
	MembershipService = membership.Service
	// View is one membership view.
	View = membership.View
	// MembershipOutput is the result of one membership round.
	MembershipOutput = membership.Output
)

// NewMembership builds the membership service for one node.
func NewMembership(cfg Config) (*MembershipService, error) { return membership.New(cfg) }

// Low-latency system-level variant (Sec. 10).
type (
	// LowLatConfig parameterises a node of the constrained-scheduling
	// variant (one-round diagnosis, two-round membership).
	LowLatConfig = lowlat.Config
	// LowLatNode is the per-slot analysis state machine.
	LowLatNode = lowlat.Node
	// Verdict is one agreed per-slot diagnosis.
	Verdict = lowlat.Verdict
)

// NewLowLatNode builds a node of the low-latency variant.
func NewLowLatNode(cfg LowLatConfig) (*LowLatNode, error) { return lowlat.NewNode(cfg) }

// TDMA substrate.
type (
	// NodeID identifies a node (1-based, in sending-slot order).
	NodeID = tdma.NodeID
	// Schedule is the global communication schedule.
	Schedule = tdma.Schedule
	// Controller is a node's communication controller.
	Controller = tdma.Controller
	// Bus is the shared broadcast medium of the lock-step engine.
	Bus = tdma.Bus
	// Disturbance perturbs bus deliveries (fault injection).
	Disturbance = tdma.Disturbance
	// Transmission describes one slot broadcast.
	Transmission = tdma.Transmission
	// Delivery is what one receiver observes for one transmission.
	Delivery = tdma.Delivery
)

// Fault injection.
type (
	// Burst is a contiguous interval of bus-wide interference.
	Burst = fault.Burst
	// Train is a set of bursts implementing Disturbance.
	Train = fault.Train
	// Scenario is a named abnormal transient scenario (Table 3).
	Scenario = fault.Scenario
)

// NewTrain builds a burst train disturbance.
func NewTrain(bursts ...Burst) *Train { return fault.NewTrain(bursts...) }

// SlotBurstTrain is a convenience: a train with one burst covering `slots`
// consecutive sending slots from (round, slot).
func SlotBurstTrain(sched *Schedule, round, slot, slots int) *Train {
	return fault.NewTrain(fault.SlotBurst(sched, round, slot, slots))
}

// BlinkingLight returns the automotive abnormal transient scenario.
func BlinkingLight() Scenario { return fault.BlinkingLight() }

// LightningBolt returns the aerospace abnormal transient scenario.
func LightningBolt() Scenario { return fault.LightningBolt() }

// Simulation runtimes.
type (
	// SimulationConfig describes a homogeneous protocol cluster (defaults:
	// the paper's 4-node, 2.5 ms prototype).
	SimulationConfig = sim.ClusterConfig
	// Engine is the deterministic lock-step round executor.
	Engine = sim.Engine
	// DiagRunner adapts a Protocol to the engine.
	DiagRunner = sim.DiagRunner
	// MembershipRunner adapts a MembershipService to the engine.
	MembershipRunner = sim.MembershipRunner
	// LowLatRunner adapts a LowLatNode to the engine.
	LowLatRunner = sim.LowLatRunner
	// Collector gathers per-round outputs for audits and metrics.
	Collector = sim.Collector
	// ConcurrentCluster is the goroutine-per-node runtime.
	ConcurrentCluster = cluster.Cluster
	// Recorder retains trace events in memory.
	Recorder = trace.Recorder
)

// NewSimulation wires a lock-step engine with one diagnostic protocol
// instance per node.
func NewSimulation(cfg SimulationConfig) (*Engine, []*DiagRunner, error) {
	return sim.NewDiagnosticCluster(cfg)
}

// NewMembershipSimulation wires a lock-step engine with one membership
// service per node.
func NewMembershipSimulation(cfg SimulationConfig) (*Engine, []*MembershipRunner, error) {
	return sim.NewMembershipCluster(cfg)
}

// NewLowLatSimulation wires a lock-step engine with the constrained
// low-latency variant on every node.
func NewLowLatSimulation(cfg SimulationConfig) (*Engine, []*LowLatRunner, error) {
	return sim.NewLowLatCluster(cfg)
}

// NewConcurrentCluster starts the goroutine-per-node runtime; Close it when
// done.
func NewConcurrentCluster(cfg SimulationConfig) (*ConcurrentCluster, error) {
	return cluster.New(cfg)
}

// NewCollector returns an empty output collector.
func NewCollector() *Collector { return sim.NewCollector() }

// AuditTheorem1 checks correctness, completeness and consistency of the
// collected health vectors against the engine's ground truth.
func AuditTheorem1(eng *Engine, col *Collector, obedient []int, fromRound, toRound int) error {
	return sim.AuditTheorem1(eng, col, obedient, fromRound, toRound)
}

// Staircase returns the node schedule in which every diagnostic job runs
// right before its own sending slot (all send_curr_round).
func Staircase(n int) []int { return sim.Staircase(n) }

// Tuning (Sec. 9).
type (
	// DomainSpec describes an application domain of Table 2.
	DomainSpec = tuning.DomainSpec
	// TuningResult is the derived Table 2 outcome (P, s_i, R).
	TuningResult = tuning.Result
)

// Automotive returns the automotive domain specification of Table 2.
func Automotive() DomainSpec { return tuning.Automotive() }

// Aerospace returns the aerospace domain specification of Table 2.
func Aerospace() DomainSpec { return tuning.Aerospace() }

// DeriveTuning reruns the Sec. 9 tuning procedure for a domain.
func DeriveTuning(spec DomainSpec) (TuningResult, error) { return tuning.Derive(spec) }

// Platform profiles (Sec. 10 portability).
type (
	// Platform is a representative TT platform deployment profile.
	Platform = platform.Profile
)

// Platforms returns the representative FlexRay, TTP/C, SAFEbus and
// TT-Ethernet profiles; the protocol runs unchanged on all of them.
func Platforms() []Platform { return platform.All() }

// NewDynamicSimulation wires a lock-step engine under dynamic node
// scheduling (Sec. 10): position(id, round) is the OS-provided per-round job
// position, sides[id-1] declares on which side of its own sending slot each
// node's job stays (true = before the slot / send_curr_round). The
// middleware pins each node's interface read point to round start, which is
// what keeps the wandering execution times sound.
func NewDynamicSimulation(cfg SimulationConfig, sides []bool, position func(id, round int) int) (*Engine, []*DiagRunner, error) {
	return sim.NewDynamicDiagnosticCluster(cfg, sides, position)
}

// NewRandomNoise returns a disturbance that corrupts every transmission
// independently with the given probability (the "random noise" injection
// class of Sec. 8), using a deterministic stream derived from seed.
func NewRandomNoise(prob float64, seed int64) Disturbance {
	return fault.NewRandomNoise(prob, rng.NewSource(seed).Stream("noise"))
}

// NewConcurrentMembership starts a goroutine-per-node membership cluster.
func NewConcurrentMembership(cfg SimulationConfig) (*ConcurrentCluster, []*MembershipRunner, error) {
	return cluster.NewMembershipCluster(cfg)
}

// NewConcurrentLowLat starts a goroutine-per-node cluster of the constrained
// low-latency variant.
func NewConcurrentLowLat(cfg SimulationConfig) (*ConcurrentCluster, []*LowLatRunner, error) {
	return cluster.NewLowLatCluster(cfg)
}

// Crash returns a disturbance that makes a node fail-silent from the given
// round on: a permanently benign faulty sender (an unhealthy node in the
// extended fault model).
func Crash(node NodeID, fromRound int) Disturbance { return fault.Crash(node, fromRound) }

// RestoreProtocol rebuilds a Protocol from a (*Protocol).Snapshot
// checkpoint: a node restarted by its host OS resumes its diagnostic job
// with the same alignment buffers and penalty/reward counters.
func RestoreProtocol(data []byte) (*Protocol, error) { return core.RestoreProtocol(data) }

// Recovery / reconfiguration (the R in FDIR).
type (
	// RecoveryJob is an application function with criticality and host
	// preference list.
	RecoveryJob = recovery.Job
	// RecoveryPlan is the static reconfiguration table.
	RecoveryPlan = recovery.Plan
	// RecoveryManager switches operating modes as activity vectors arrive.
	RecoveryManager = recovery.Manager
	// RecoveryMode is one derived operating mode.
	RecoveryMode = recovery.Mode
)

// NewRecoveryPlan validates a job table for an n-node system.
func NewRecoveryPlan(n int, jobs []RecoveryJob) (*RecoveryPlan, error) {
	return recovery.NewPlan(n, jobs)
}

// NewRecoveryManager builds a per-node mode manager over a plan.
func NewRecoveryManager(plan *RecoveryPlan) *RecoveryManager { return recovery.NewManager(plan) }

// RoundDiagnosis is one per-round outcome of a replayed observer.
type RoundDiagnosis = replay.RoundDiagnosis

// ReplayTrace re-simulates the run recorded in a trace (the events a
// Recorder or JSONL sink received from one diagnostic simulation) and
// returns one observer's diagnoses. cfg must have the recorded node count
// and job positions; with the recorded tuning the replay is the live run,
// and a different PR configuration gives the whole cluster's
// counterfactual.
func ReplayTrace(events []trace.Event, cfg SimulationConfig, observer int) ([]RoundDiagnosis, error) {
	return replay.Replay(events, cfg, observer)
}

// Deterministic telemetry (see docs/OBSERVABILITY.md).
type (
	// MetricsRegistry owns a single goroutine's counters, gauges, histograms
	// and series; nil is the zero-cost metrics-off mode.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time, deterministically marshaling copy
	// of a registry's instruments.
	MetricsSnapshot = metrics.Snapshot
	// MetricsReport is the versioned machine-readable run report the CLIs'
	// -metrics flag emits.
	MetricsReport = metrics.Report
	// MetricsWorkerSet merges per-worker registries into worker-count-
	// invariant aggregates.
	MetricsWorkerSet = metrics.WorkerSet
	// StepMetrics is the per-node protocol instrument bundle a Protocol
	// emits into on every Step.
	StepMetrics = core.StepMetrics
	// RunMetrics is the per-run system instrument bundle (ground-truth
	// outcomes, isolation latency, view changes).
	RunMetrics = sim.RunMetrics
	// CampaignProgress is the opt-in wall-clock progress reporter; its
	// observations never enter deterministic outputs.
	CampaignProgress = metrics.Progress
)

// NewMetricsRegistry returns an empty single-goroutine metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// NewStepMetrics wires the standard protocol instruments to the registry;
// attach the result with (*Protocol).SetMetrics.
func NewStepMetrics(reg *MetricsRegistry) *StepMetrics { return core.NewStepMetrics(reg) }

// NewRunMetrics wires the standard system instruments to the registry.
func NewRunMetrics(reg *MetricsRegistry) *RunMetrics { return sim.NewRunMetrics(reg) }

// NewMetricsReport returns an empty versioned run report.
func NewMetricsReport(tool string, seed int64, runs int) *MetricsReport {
	return metrics.NewReport(tool, seed, runs)
}
