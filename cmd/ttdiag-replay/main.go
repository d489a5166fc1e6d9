// Command ttdiag-replay is the flight-recorder analyzer: it reads a bus
// transcript recorded with `ttdiag-sim -record file.jsonl` and re-runs the
// diagnostic protocol offline, reconstructing the health vectors and
// isolation decisions the cluster must have taken. Use it for post-mortem
// analysis: why was this node isolated, and when did the votes turn?
//
// Usage:
//
//	ttdiag-replay -in transcript.jsonl [-n nodes] [-observer id]
//	              [-ls l1,l2,...] [-p P] [-r R] [-faulty-only]
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"ttdiag/internal/core"
	"ttdiag/internal/replay"
	"ttdiag/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttdiag-replay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttdiag-replay", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "transcript file (JSONL, required)")
		n          = fs.Int("n", 4, "number of nodes in the recorded system")
		observer   = fs.Int("observer", 1, "node whose diagnosis to reconstruct")
		lsFlag     = fs.String("ls", "", "comma-separated job positions l_1,...,l_N (default: staircase)")
		p          = fs.Int64("p", 197, "penalty threshold P of the recorded deployment")
		r          = fs.Int64("r", 1_000_000, "reward threshold R of the recorded deployment")
		faultyOnly = fs.Bool("faulty-only", false, "print only rounds with non-healthy vectors or isolations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := replay.Read(f, *n)
	if err != nil {
		return err
	}

	cfg := sim.ClusterConfig{
		N:  *n,
		PR: core.PRConfig{PenaltyThreshold: *p, RewardThreshold: *r},
	}
	if *lsFlag != "" {
		parts := strings.Split(*lsFlag, ",")
		ls := make([]int, 0, len(parts))
		for _, part := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("parse -ls: %w", err)
			}
			ls = append(ls, v)
		}
		cfg.Ls = ls
	}

	diags, err := replay.Replay(log, cfg, *observer)
	if err != nil {
		return err
	}
	fmt.Printf("transcript: rounds 0..%d, %d-node system; reconstructing observer %d\n\n",
		log.LastRound(), *n, *observer)
	printed := 0
	for _, d := range diags {
		interesting := d.ConsHV.CountFaulty(*n) > 0 || d.Isolated != 0
		if *faultyOnly && !interesting {
			continue
		}
		extra := ""
		if d.Isolated != 0 {
			var nodes []int
			for m := d.Isolated; m != 0; m &= m - 1 {
				nodes = append(nodes, bits.TrailingZeros64(m)+1)
			}
			extra = fmt.Sprintf("   ISOLATED %v", nodes)
		}
		fmt.Printf("round %-5d cons_hv(round %d) = %s%s\n", d.Round, d.DiagnosedRound, d.ConsHV.String(*n), extra)
		printed++
	}
	if printed == 0 {
		fmt.Println("no matching rounds (the transcript looks clean)")
	}
	return nil
}
