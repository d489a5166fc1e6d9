// Command ttdiag-experiments regenerates every table and figure of the
// paper's evaluation. Without flags it runs the full suite; use -list to see
// the available experiment IDs and -run to execute a single one.
//
// Usage:
//
//	ttdiag-experiments [-list] [-run id] [-runs n] [-seed s] [-workers n]
//	                   [-fleet n] [-shards n] [-splitting n] [-levels n]
//	                   [-metrics f] [-trace f] [-progress]
//	                   [-progress-addr a] [-cpuprofile f] [-memprofile f]
//
// -runs takes at least 1; -workers, -fleet, -shards, -splitting and
// -levels take 0 for their default or a positive value. An invalid command
// line exits 2, a failed experiment 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"ttdiag/internal/experiments"
	"ttdiag/internal/metrics"
	"ttdiag/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttdiag-experiments:", err)
		os.Exit(exitCode(err))
	}
}

// usageError is an invalid command line.
type usageError struct{ error }

// exitCode is the exit status of a failed run: 2 for an invalid command
// line, 1 for everything else.
func exitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttdiag-experiments", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list the registered experiments and exit")
		id         = fs.String("run", "", "run a single experiment by ID (default: all)")
		runs       = fs.Int("runs", 100, "Monte-Carlo repetitions per experiment class")
		seed       = fs.Int64("seed", 2007, "master seed for randomised campaigns")
		workers    = fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS, 1 = serial); output is identical at any value")
		fleetN     = fs.Int("fleet", 0, "pin fleet-resilience to this fleet-wide node count (0 = default sweep)")
		shards     = fs.Int("shards", 0, "pin fleet-resilience to this shard count (0 = default sweep)")
		splitN     = fs.Int("splitting", 0, "rare-event splitting trials per level (0 = default 14000)")
		levels     = fs.Int("levels", 0, "rare-event splitting level count; penalty threshold is levels-1 (0 = default 8)")
		out        = fs.String("out", "", "also write the rendered artifacts to this file")
		metricsOut = fs.String("metrics", "", "write a versioned machine-readable metrics report (JSON) to this file")
		traceOut   = fs.String("trace", "", "stream simulation trace events (JSONL) to this file: one boundary note plus the job, transmit and node-1 causal events per campaign repetition, in run order (only the four Sec. 8 campaigns sec8-bursts, sec8-clique, sec8-malicious and sec8-pr record; every other experiment writes nothing); forces -workers=1 so the event order is deterministic; output and metrics are unchanged")
		progress   = fs.Bool("progress", false, "print wall-clock campaign progress (runs/s) to stderr")
		progrAddr  = fs.String("progress-addr", "", "serve progress counters over HTTP expvar (/debug/vars) at this address")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	// No run has fewer than one repetition, and the flags whose 0 selects
	// the default take no negative value.
	if *runs < 1 {
		return usageError{fmt.Errorf("-runs %d: want at least 1", *runs)}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"fleet", *fleetN}, {"shards", *shards}, {"splitting", *splitN}, {"levels", *levels}} {
		if f.v < 0 {
			return usageError{fmt.Errorf("-%s %d: want 0 (the default) or more", f.name, f.v)}
		}
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %-10s %s\n", e.ID, e.Ref, e.Title)
		}
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // flush unreachable allocations so the profile reflects live + cumulative state
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	p := experiments.Params{
		Seed: *seed, Runs: *runs, Workers: *workers, Out: w,
		FleetNodes: *fleetN, FleetShards: *shards,
		SplitEffort: *splitN, SplitLevels: *levels,
	}

	var rep *metrics.Report
	if *metricsOut != "" {
		rep = metrics.NewReport("ttdiag-experiments", *seed, *runs)
		p.Metrics = rep
	}
	var jw *trace.JSONLWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = trace.NewJSONLWriter(f)
		p.Trace = jw
		// A concurrent campaign would interleave trace events in scheduling
		// order; serial execution keeps the stream reproducible.
		p.Workers = 1
	}
	if *progress || *progrAddr != "" {
		var pw io.Writer
		if *progress {
			pw = os.Stderr
		}
		prog := metrics.NewProgress(pw, "experiments", 0)
		p.Progress = prog.RunDone
		if *progrAddr != "" {
			prog.PublishExpvar("ttdiag.progress")
			addr, err := metrics.StartDebugServer(*progrAddr)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "ttdiag-experiments: progress at http://%s/debug/vars, profiles at http://%s/debug/pprof/\n", addr, addr)
		}
		defer prog.Finish()
	}

	runExp := func() error {
		if *id != "" {
			return experiments.Run(*id, p)
		}
		return experiments.RunAll(p)
	}
	// The experiment's error is returned last: a failed audit still leaves
	// its metrics report and a checked trace behind to diagnose it.
	err := runExp()
	if jw != nil {
		if terr := jw.Err(); terr != nil {
			err = errors.Join(err, fmt.Errorf("trace: %w", terr))
		}
	}
	if dc, ok := p.Trace.(trace.DropCounter); ok {
		if n := dc.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "ttdiag-experiments: warning: trace sink evicted %d events; the JSONL stream is incomplete\n", n)
			rep.SetTraceDropped(n)
		}
	}
	if rep != nil {
		f, ferr := os.Create(*metricsOut)
		if ferr == nil {
			defer f.Close()
			ferr = rep.WriteJSON(f)
		}
		if ferr != nil {
			err = errors.Join(err, fmt.Errorf("metrics: %w", ferr))
		}
	}
	return err
}
