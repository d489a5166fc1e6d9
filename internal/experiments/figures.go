package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ttdiag/internal/core"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/trace"
	"ttdiag/internal/tuning"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Interleaving of protocol phases across TDMA rounds",
		Ref:   "Figure 1",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Read alignment example (round k, l_i = 2)",
		Ref:   "Figure 2",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Setting the reward threshold R with rounds of 2.5 ms",
		Ref:   "Figure 3",
		Run:   runFig3,
	})
}

// runFig1 traces a 4-node cluster and prints, per round, which phase of
// which protocol instance each job execution belongs to: instance k runs
// local detection at round k+1, dissemination at k+1/k+2, aggregation and
// analysis at k+2 (AllSendCurrRound), interleaved with the neighbouring
// instances — the pipeline sketched in Fig. 1.
func runFig1(p Params) error {
	var rec trace.Recorder
	eng, runners, err := sim.NewDiagnosticCluster(sim.ClusterConfig{
		Ls: sim.Staircase(4), AllSendCurrRound: true, Sink: &rec,
	})
	if err != nil {
		return err
	}
	diagnosedAt := make(map[int]int) // diagnosed round -> execution round
	runners[1].OnOutput = func(out core.RoundOutput) {
		if out.ConsHV.Known != 0 {
			diagnosedAt[out.DiagnosedRound] = out.Round
		}
	}
	const rounds = 8
	if err := eng.RunRounds(rounds); err != nil {
		return err
	}
	t := newTable(p.Out)
	t.row("round", "phases executed by every diagnostic job")
	t.rule(2)
	for k := 0; k < rounds; k++ {
		var phases []string
		phases = append(phases, fmt.Sprintf("detect(round %d)", k-1))
		phases = append(phases, fmt.Sprintf("disseminate(round %d)", k-1))
		if exec, ok := diagnosedAt[k-2]; ok && exec == k {
			phases = append(phases, fmt.Sprintf("aggregate+analyse+counters(round %d)", k-2))
		}
		t.row(strconv.Itoa(k), strings.Join(phases, ", "))
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintf(p.Out, "\n%d job executions traced; every instance completes in %d rounds (lag %d)\n\n",
		rec.Len(), 3, 2)
	fmt.Fprint(p.Out, trace.Gantt{Nodes: 4}.Render(rec.Events()))
	return nil
}

// runFig2 walks through the read-alignment example of Fig. 2: at round k a
// job with l_i = 2 combines entries 1..2 of the previous read with entries
// 3..N of the current one, so every aligned value was sent in round k-1.
func runFig2(p Params) error {
	const (
		n = 4
		l = 2
	)
	prev := []string{"", "dm1@k-1", "dm2@k-1", "dm3@k-2", "dm4@k-2"}
	curr := []string{"", "dm1@k", "dm2@k", "dm3@k-1", "dm4@k-1"}
	t := newTable(p.Out)
	t.row("j", "prev_dm (read at k-1)", "curr_dm (read at k)", "al_dm")
	t.rule(4)
	for j := 1; j <= n; j++ {
		al := curr[j]
		src := "curr"
		if j <= l {
			al = prev[j]
			src = "prev"
		}
		t.row(strconv.Itoa(j), prev[j], curr[j], fmt.Sprintf("%s (from %s)", al, src))
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(p.Out, "\nall aligned values were sent in round k-1, as Lemma 1 requires")
	return nil
}

// runFig3 regenerates the Fig. 3 trade-off: probability of wrongly
// correlating a second independent external transient against the reward
// threshold R, for a sweep of transient-fault rates, with a Monte-Carlo
// cross-check at R = 10^6.
func runFig3(p Params) error {
	rates := []float64{
		1.0 / 600,    // one transient per 10 min (very harsh environment)
		1.0 / 3600,   // one per hour
		1.0 / 36000,  // one per 10 h
		1.0 / 252000, // one per 70 h
	}
	rateNames := []string{"1/10min", "1/1h", "1/10h", "1/70h"}
	rs := []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	t := newTable(p.Out)
	t.row(append([]string{"R", "R×T"}, rateNames...)...)
	t.rule(2 + len(rates))
	for _, pt := range tuning.Fig3Sweep(rs, rates, sim.DefaultRoundLen) {
		cells := []string{fmt.Sprintf("%g", float64(pt.R)), pt.Window.String()}
		for _, prob := range pt.Prob {
			cells = append(cells, fmt.Sprintf("%.4f", prob))
		}
		t.row(cells...)
	}
	if err := t.flush(); err != nil {
		return err
	}
	// ASCII rendering of the trade-off curves (x = log10 R, y = probability).
	xs := make([]float64, len(rs))
	series := make([][]float64, len(rates))
	for i := range series {
		series[i] = make([]float64, len(rs))
	}
	for xi, pt := range tuning.Fig3Sweep(rs, rates, sim.DefaultRoundLen) {
		xs[xi] = math.Log10(float64(pt.R))
		for i, prob := range pt.Prob {
			series[i][xi] = prob
		}
	}
	fmt.Fprintln(p.Out)
	fmt.Fprint(p.Out, asciiPlot{
		width: 61, height: 11,
		glyphs: []byte{'a', 'b', 'c', 'd'},
		labels: rateNames,
	}.render(xs, series))
	fmt.Fprintln(p.Out, "     x: log10(R) from 3 to 8")

	stream := rng.NewSource(p.Seed).Stream("fig3-mc")
	mc := tuning.CorrelationMonteCarlo(stream, rates[3], tuning.PaperRewardThreshold, sim.DefaultRoundLen, 200000)
	an := tuning.CorrelationProbability(rates[3], tuning.PaperRewardThreshold, sim.DefaultRoundLen)
	fmt.Fprintf(p.Out, "\nR=10^6 gives R×T ≈ 41.7 min; at 1/70h the correlation probability is %.4f"+
		" (Monte-Carlo %.4f) — the paper's \"less than 1%%\"\n", an, mc)
	return nil
}
