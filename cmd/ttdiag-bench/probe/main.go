// Command probe is the in-process half of ttdiag-bench's traced run. It
// times experiments.Run with one workload's exact parameters, then warm calls
// into the public functions of each layer at the workload's node count, and
// prints the results as one JSON object of metric name to value.
// Allocation counts are whole allocations per call, as testing.AllocsPerRun
// counts them.
//
// It is a separate binary so that only the traced run depends on the
// internal layer APIs: when a change reshapes them, the end-to-end benchmark
// still builds and measures the CLI.
//
// It takes the workload's ttdiag-experiments arguments, so experiments.Run
// gets exactly the parameters the CLI would pass, plus its own:
//
//	probe -run id -seed s -workers w [-runs r] [-splitting e] [-metrics f]
//	      -n nodes [-batch d]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"ttdiag/internal/core"
	"ttdiag/internal/experiments"
	"ttdiag/internal/fleet"
	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	var (
		id        = fs.String("run", "", "experiment ID, as passed to ttdiag-experiments -run")
		seed      = fs.Int64("seed", 2007, "master seed")
		runs      = fs.Int("runs", 100, "Monte-Carlo repetitions per experiment class")
		workers   = fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
		splitting = fs.Int("splitting", 0, "rare-event splitting trials per level (0 = default)")
		report    = fs.String("metrics", "", "attach a metrics report and write it to this file, as ttdiag-experiments does")
		n         = fs.Int("n", 4, "node count of the layer probes")
		batch     = fs.Duration("batch", 200*time.Millisecond, "length of one timed batch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *n < 2 || *n > core.MaxPackedN || *batch <= 0 {
		return fmt.Errorf("need -run, 2 <= -n <= %d and -batch > 0", core.MaxPackedN)
	}

	res := map[string]float64{}
	p := experiments.Params{
		Seed: *seed, Runs: *runs, Workers: *workers, Out: io.Discard,
		SplitEffort: *splitting,
	}
	if *report != "" {
		p.Metrics = metrics.NewReport("ttdiag-experiments", *seed, *runs)
	}
	start := time.Now()
	if err := experiments.Run(*id, p); err != nil {
		return err
	}
	res["experiments.run_s"] = time.Since(start).Seconds()
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		if err := p.Metrics.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	t := timer{batch: *batch}
	if err := layerProbes(t, *n, *seed, res); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// batches is the number of timed batches per layer metric.
const batches = 5

// timer runs the layer probes: each metric is the median of its batches.
type timer struct {
	batch time.Duration
}

// nsPerCall returns the median over the batches of the time per call of op,
// where op(k) makes k calls and returns the time those calls took (so an op
// can leave its own untimed upkeep out). Chunks of k calls repeat until a
// batch has lasted t.batch; k is first doubled until one chunk lasts a
// twentieth of a batch, which also warms caches and lazy state.
func (t timer) nsPerCall(op func(k int) time.Duration) float64 {
	k := 1
	for op(k) < t.batch/20 && k < 1<<30 {
		k *= 2
	}
	per := make([]float64, batches)
	for i := range per {
		var spent time.Duration
		calls := 0
		for spent < t.batch {
			spent += op(k)
			calls += k
		}
		per[i] = float64(spent.Nanoseconds()) / float64(calls)
	}
	sort.Float64s(per)
	if len(per)%2 == 1 {
		return per[len(per)/2]
	}
	return (per[len(per)/2-1] + per[len(per)/2]) / 2
}

// timed wraps a single call into an op for nsPerCall.
func timed(call func()) func(k int) time.Duration {
	return func(k int) time.Duration {
		start := time.Now()
		for i := 0; i < k; i++ {
			call()
		}
		return time.Since(start)
	}
}

// errs keeps the first error a probe call returns; the probes check it once
// their timing is done, so the timed loops stay free of error plumbing.
type errs struct{ err error }

func (e *errs) keep(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

// detectOnly never isolates and never forgets, so a warm protocol stays in
// the steady state however many rounds a batch runs.
var detectOnly = core.PRConfig{PenaltyThreshold: 1 << 50, RewardThreshold: 1 << 50}

func layerProbes(t timer, n int, seed int64, res map[string]float64) error {
	var e errs
	all := core.PlaneMask(n)
	healthy := core.BitSyndrome{Op: all, Known: all}
	cfg := core.Config{N: n, ID: 1, L: 0, SendCurrRound: true, PR: detectOnly}

	// Voting kernel: VoteAll over a full packed matrix with random opinions
	// and a tenth of the entries erased.
	m, err := core.NewPackedMatrix(n)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	for j := 1; j <= n; j++ {
		var known uint64
		for i := 0; i < n; i++ {
			if r.Intn(10) != 0 {
				known |= 1 << uint(i)
			}
		}
		e.keep(m.SetBitRow(j, core.BitSyndrome{Op: r.Uint64() & known & all, Known: known}))
	}
	res["core.vote_ns"] = t.nsPerCall(timed(func() {
		_, err := m.VoteAll()
		e.keep(err)
	}))

	// Protocol step on packed healthy inputs, without and with telemetry.
	rows := make([]core.BitSyndrome, n+1)
	for j := 1; j <= n; j++ {
		rows[j] = healthy
	}
	newStep := func(sm *core.StepMetrics) (func(), *core.Protocol, error) {
		p, err := core.NewProtocol(cfg)
		if err != nil {
			return nil, nil, err
		}
		p.SetMetrics(sm)
		round := 0
		step := func() {
			_, err := p.StepPacked(core.PackedRoundInput{Round: round, Rows: rows, Present: all, Validity: healthy})
			e.keep(err)
			round++
		}
		for i := 0; i < 16; i++ {
			step()
		}
		return step, p, nil
	}
	step, warm, err := newStep(nil)
	if err != nil {
		return err
	}
	res["core.step_ns"] = t.nsPerCall(timed(step))
	res["core.step_allocs"] = testing.AllocsPerRun(1000, step)
	stepM, _, err := newStep(core.NewStepMetrics(metrics.New()))
	if err != nil {
		return err
	}
	res["core.step_metrics_ns"] = t.nsPerCall(timed(stepM))

	// Lane-packed gang step: ⌊64/N⌋ runs per call.
	lanes := core.BatchLanes(n)
	bp, err := core.NewBatchProtocol(cfg, lanes)
	if err != nil {
		return err
	}
	var allB uint64
	for l := 0; l < lanes; l++ {
		allB |= all << uint(l*n)
	}
	batchRows := make([]core.BitSyndrome, n+1)
	for j := 1; j <= n; j++ {
		batchRows[j] = core.BitSyndrome{Op: allB, Known: allB}
	}
	batchRound := 0
	res["core.stepbatch_ns_per_run"] = t.nsPerCall(timed(func() {
		_, err := bp.StepBatch(core.BatchRoundInput{
			Round: batchRound, Rows: batchRows, Present: allB,
			Validity: core.BitSyndrome{Op: allB, Known: allB},
		})
		e.keep(err)
		batchRound++
	})) / float64(lanes)

	// Checkpoint primitives: one protocol copy, then a whole cluster.
	dst, err := core.NewProtocol(cfg)
	if err != nil {
		return err
	}
	res["core.copyfrom_ns"] = t.nsPerCall(timed(func() { e.keep(dst.CopyFrom(warm)) }))

	ccfg := sim.ClusterConfig{N: n, RoundLen: sim.DefaultRoundLen * time.Duration(n) / 4}
	cl, err := sim.NewReusableDiagnosticCluster(ccfg)
	if err != nil {
		return err
	}
	if err := cl.Eng.RunRounds(16); err != nil {
		return err
	}
	ck, err := sim.NewClusterCheckpoint(cl)
	if err != nil {
		return err
	}
	res["sim.checkpoint_capture_ns"] = t.nsPerCall(timed(func() { e.keep(ck.Capture(cl)) }))
	res["sim.checkpoint_restore_ns"] = t.nsPerCall(timed(func() { e.keep(ck.Restore(cl)) }))

	// Engine round: N transmissions plus N diagnostic jobs. The cluster is
	// reset (untimed) every resetEvery rounds so the ground-truth record
	// stays within the capacity the warm-up grew.
	const resetEvery = 256
	rc, err := sim.NewReusableDiagnosticCluster(ccfg)
	if err != nil {
		return err
	}
	if err := rc.Eng.RunRounds(resetEvery); err != nil {
		return err
	}
	rc.Reset()
	done := 0
	res["sim.round_ns"] = t.nsPerCall(func(k int) time.Duration {
		var spent time.Duration
		for k > 0 {
			c := resetEvery - done
			if k < c {
				c = k
			}
			start := time.Now()
			for i := 0; i < c; i++ {
				e.keep(rc.Eng.RunRound())
			}
			spent += time.Since(start)
			k -= c
			done += c
			if done == resetEvery {
				rc.Reset()
				done = 0
			}
		}
		return spent
	})
	rc.Reset()
	res["sim.round_allocs"] = testing.AllocsPerRun(resetEvery/2-1, func() { e.keep(rc.Eng.RunRound()) })
	res["sim.round_self_ns"] = res["sim.round_ns"] - float64(n)*res["core.step_ns"]
	res["sim.reset_us"] = t.nsPerCall(timed(rc.Reset)) / 1e3

	// One fleet repetition at 1024 nodes in 16 shards, construction included.
	res["fleet.rep_ms"] = t.nsPerCall(timed(func() {
		c, err := fleet.New(fleet.Config{Nodes: 1024, Shards: 16, Rounds: 12, Workers: 2})
		if err != nil {
			e.keep(err)
			return
		}
		_, err = c.Run(rng.NewSource(seed), fleet.Hooks{})
		e.keep(err)
	})) / 1e6
	return e.err
}
