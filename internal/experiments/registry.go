// Package experiments is the reproduction harness: one registered experiment
// per table and figure of the paper (plus the comparative claims of Secs. 2,
// 9 and 10). Each experiment regenerates its artifact from the simulation
// stack and prints the same rows or series the paper reports, side by side
// with the published values where they exist. EXPERIMENTS.md records the
// paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"ttdiag/internal/metrics"
	"ttdiag/internal/trace"
)

// Params controls an experiment run.
type Params struct {
	// Seed is the master seed of all randomised campaigns.
	Seed int64
	// Runs is the number of Monte-Carlo repetitions for experiments that
	// repeat injections (the paper uses 100 per experiment class).
	Runs int
	// Workers bounds the campaign worker pool: <= 0 means one worker per
	// CPU (GOMAXPROCS), 1 recovers serial execution. The rendered output is
	// bit-identical at any setting — see internal/campaign.
	Workers int
	// Out receives the rendered artifact.
	Out io.Writer
	// Metrics, when non-nil, receives one merged deterministic snapshot per
	// instrumented experiment (keyed by experiment ID). The snapshot is
	// bit-identical at any Workers setting; see internal/metrics.
	Metrics *metrics.Report
	// Trace, when non-nil, receives the simulation trace of every campaign
	// repetition plus one KindNote boundary event per run. Only the four
	// Sec. 8 campaigns (sec8-bursts, sec8-clique, sec8-malicious, sec8-pr)
	// record; every other experiment writes nothing to it. Their lane-packed
	// gangs record each lane and write it out after its note, in run order,
	// so tracing changes neither the execution path nor the rendered output
	// or metrics. Event order is deterministic only with Workers == 1 (the
	// CLI's -trace flag forces that); with more workers the sink must be
	// safe for concurrent use and the interleaving reflects scheduling.
	Trace trace.Sink
	// Progress, when non-nil, observes every completed repetition
	// (campaign.Options.OnRunDone): wall-clock-side progress reporting that
	// never feeds the rendered artifact or the metrics report.
	Progress func(run int)
	// FleetNodes and FleetShards pin the fleet-resilience experiment to a
	// single geometry instead of its default sweep. 0/0 keeps the sweep; a
	// single set field defaults the other to 1024 nodes / 16 shards.
	FleetNodes  int
	FleetShards int
	// SplitEffort and SplitLevels tune the rare-event splitting experiment:
	// trials per level and number of penalty-threshold levels (the
	// penalty threshold is SplitLevels-1, so the top level is wrong
	// isolation). 0/0 keeps the defaults (14000 trials, 8 levels). The
	// experiment's work is SplitEffort x SplitLevels trials; Runs does not
	// multiply it.
	SplitEffort int
	SplitLevels int
}

func (p Params) withDefaults() Params {
	if p.Runs <= 0 {
		p.Runs = 100
	}
	if p.Out == nil {
		p.Out = io.Discard
	}
	return p
}

// Experiment is one registered reproduction target.
type Experiment struct {
	// ID is the registry key (e.g. "table4").
	ID string
	// Title is a one-line description.
	Title string
	// Ref names the paper artifact it regenerates.
	Ref string
	// Run executes the experiment.
	Run func(p Params) error
}

// registry holds the experiments the artifact files register, sorted by
// ID, so listing never depends on map order.
var registry []Experiment

// find returns the index at which id is or would be registered.
func find(id string) int {
	return sort.Search(len(registry), func(i int) bool { return registry[i].ID >= id })
}

func register(e Experiment) {
	i := find(e.ID)
	if i < len(registry) && registry[i].ID == e.ID {
		panic("experiments: duplicate experiment " + e.ID)
	}
	registry = slices.Insert(registry, i, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment { return slices.Clone(registry) }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	i := find(id)
	if i == len(registry) || registry[i].ID != id {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (use -list)", id)
	}
	return registry[i], nil
}

// Run executes one experiment by ID.
func Run(id string, p Params) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	p = p.withDefaults()
	fmt.Fprintf(p.Out, "==> %s — %s (%s)\n\n", e.ID, e.Title, e.Ref)
	if err := e.Run(p); err != nil {
		return fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	fmt.Fprintln(p.Out)
	return nil
}

// RunAll executes every registered experiment in ID order.
func RunAll(p Params) error {
	for _, e := range All() {
		if err := Run(e.ID, p); err != nil {
			return err
		}
	}
	return nil
}
