package experiments

import (
	"fmt"
	"strconv"

	"ttdiag/internal/core"
)

func init() {
	register(Experiment{
		ID:    "overhead",
		Title: "Protocol overhead vs cluster size: bandwidth and voting work",
		Ref:   "Sec. 1 & 10 (low bandwidth requirements)",
		Run:   runOverhead,
	})
}

// runOverhead quantifies the integration cost the paper advertises as low,
// in exact counts only: the diagnostic message stays at N bits per node per
// round, and one diagnostic job votes over the N×N diagnostic matrix. The
// measured job CPU time is BenchmarkProtocolStep's, recorded with its
// machine in BENCH_campaign.json.
func runOverhead(p Params) error {
	t := newTable(p.Out)
	t.row("N", "dm size", "dm bits/round/bus", "vote cells/job")
	t.rule(4)
	for _, n := range []int{4, 8, 16, 32, 64} {
		t.row(strconv.Itoa(n),
			fmt.Sprintf("%d byte(s)", core.EncodedLen(n)),
			strconv.Itoa(n*n),
			strconv.Itoa(n*n))
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(p.Out, "\nbandwidth is the paper's O(N) bits per message / O(N^2) per round;"+
		" voting is O(N^2) per job (job CPU: BenchmarkProtocolStep)\n")
	return nil
}
