package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &result{byName: map[string]*workloadResult{}}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range r.Workloads {
		r.byName[w.Name] = w
	}
	return r, nil
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians and quartiles with a verdict under the spec's bounds, then the
// per-layer metrics side by side.
func compareFiles(stdout io.Writer, sp spec, basePath, newPath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		label string
		r     *result
	}{{"base", base}, {"new", cur}} {
		fmt.Fprintf(stdout, "%-4s  commit %s  %s  %s  nproc %s  seed %d  %d x %gs\n", side.label,
			side.r.Env["commit"], side.r.Env["go"], side.r.Env["cpu"], side.r.Env["nproc"],
			side.r.Seed, side.r.Samples, side.r.Seconds)
	}
	fmt.Fprintln(stdout)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tbound\tverdict")
	for _, sw := range sp.Workloads {
		bw, nw := base.byName[sw.Name], cur.byName[sw.Name]
		if bw == nil || nw == nil {
			fmt.Fprintf(tw, "%s\t(missing from one result)\t\t\t\t\t\t\n", sw.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			bs, okB := bw.Metrics[m.Name]
			ns, okN := nw.Metrics[m.Name]
			if !okB || !okN || bs.N == 0 || ns.N == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\tunresolved (no samples)\n", sw.Name, m.Name, m.Unit)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%g%%\t%s\n", sw.Name, m.Name, m.Unit,
				quart(bs), quart(ns), 100*(ns.Median/bs.Median-1), 100*m.Bound, verdict(m, bs, ns))
		}
		v := "within bound"
		switch be, ne := bw.errorRate(), nw.errorRate(); {
		case ne > be:
			v = "worse"
		case ne < be:
			v = "better"
		}
		fmt.Fprintf(tw, "%s\terror_rate\tfraction\t%.4g (%d/%d)\t%.4g (%d/%d)\t\t0\t%s\n", sw.Name,
			bw.errorRate(), bw.Failed, bw.Attempted, nw.errorRate(), nw.Failed, nw.Attempted, v)
	}
	tw.Flush()

	fmt.Fprintln(stdout)
	fmt.Fprintln(tw, "workload\tper-layer metric\tunit\tbase\tnew\tchange")
	for _, sw := range sp.Workloads {
		bw, nw := base.byName[sw.Name], cur.byName[sw.Name]
		if bw == nil || nw == nil || (bw.Layers == nil && nw.Layers == nil) {
			continue
		}
		for _, m := range sp.PerLayer {
			bv, okB := bw.Layers[m.Name]
			nv, okN := nw.Layers[m.Name]
			change := ""
			switch {
			case !okB || !okN:
				change = "missing"
			case strings.HasSuffix(m.Name, "_allocs"):
				// Allocation counts are exact: any change is a change.
				change = "same"
				if bv != nv {
					change = "CHANGED"
				}
			case bv != 0:
				change = fmt.Sprintf("%+.1f%%", 100*(nv/bv-1))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", sw.Name, m.Name, m.Unit, num(bv, okB), num(nv, okN), change)
		}
	}
	return tw.Flush()
}

func quart(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func num(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// verdict judges new against base under m's bound:
//   - better: every new sample beats every base sample, or the median
//     improved by more than the base's quartile distance;
//   - unresolved: either side's quartile distance exceeds the bound;
//   - worse: the median got worse by more than the bound;
//   - within bound otherwise.
//
// Spreads and changes are shares of the medians.
func verdict(m metricSpec, base, cur summary) string {
	dir := 1.0 // +1 when a larger value is worse
	allBetter := cur.Max < base.Min
	if m.Better == "higher" {
		dir = -1
		allBetter = cur.Min > base.Max
	}
	worse := dir * (cur.Median - base.Median) / base.Median
	switch {
	case allBetter:
		return "better"
	case math.Max(base.relSpread(), cur.relSpread()) > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case -worse > base.relSpread():
		return "better"
	}
	return "within bound"
}
