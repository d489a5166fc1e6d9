package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// digestSeed is the seed whose stdout digests are committed in digests.json.
const digestSeed = 2007

// childProcs is the GOMAXPROCS of every CLI launch and of the probe: no
// workload uses more than two workers, the CPU count of the machine the
// benchmark was calibrated on.
const childProcs = 2

// workload is one closed-loop batch job: a single ttdiag-experiments
// process, started again as soon as the previous one exits. Workloads pass
// only inputs (experiment, size, workers, seed, -metrics), never an
// implementation selector, so a change of the default code path is measured
// by the same command on both commits.
type workload struct {
	// name is also the experiment ID passed to -run.
	name    string
	workers int
	// size and setupSize are the -runs (or, for rare-event, -splitting)
	// value of a measured launch and of a setup launch.
	size, setupSize int
	// splitting selects -splitting instead of -runs as the size flag.
	splitting bool
	// metrics adds -metrics <file>: the report is written, never digested,
	// because its instrument set legitimately differs between code paths.
	metrics bool
	// repsPer is the repetitions one unit of size performs: injection
	// classes, resilience cases, fleet geometries, or splitting levels.
	repsPer int
	// n is the node count of the in-process layer probes.
	n int
	// check validates a launch's stdout for the given size at any seed.
	check func(out string, size int) error
}

// workloads is the benchmark's workload table; BENCHMARK.json lists the same
// names with the reason each was chosen. One measured launch takes about
// 2-3 s on a 2-vCPU VM, so a run of run_seconds takes the median of several.
var workloads = []workload{
	{
		name: "sec8-bursts", workers: 2, size: 3000, setupSize: 1,
		metrics: true, repsPer: 12, n: 4, check: checkSec8,
	},
	{
		name: "scale-resilience", workers: 1, size: 30, setupSize: 1,
		repsPer: 29, n: 64, check: checkScale,
	},
	{
		name: "fleet-resilience", workers: 2, size: 4, setupSize: 1,
		repsPer: 4, n: 64, check: checkFleet,
	},
	{
		name: "rare-event", workers: 2, size: 14000, setupSize: 100,
		splitting: true, repsPer: 10, n: 4, check: checkRare,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// args returns the CLI arguments of one launch. metricsFile is used only by
// workloads that pass -metrics; extra flags (profiling) are appended.
func (w workload) args(size int, seed int64, metricsFile string, extra ...string) []string {
	a := []string{"-run", w.name, "-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(w.workers)}
	if w.splitting {
		a = append(a, "-splitting", strconv.Itoa(size))
	} else {
		a = append(a, "-runs", strconv.Itoa(size))
	}
	if w.metrics {
		a = append(a, "-metrics", metricsFile)
	}
	return append(a, extra...)
}

// reps is the number of repetitions a measured launch performs.
func (w workload) reps() int { return w.size * w.repsPer }

var passedRe = regexp.MustCompile(`(?m)^(\d+)/(\d+) injections passed their audits$`)

// checkSec8 requires every burst injection to pass its audit: the protocol
// diagnoses all of them consistently (Sec. 8).
func checkSec8(out string, size int) error {
	m := passedRe.FindStringSubmatch(out)
	if m == nil {
		return fmt.Errorf("no audit summary line")
	}
	if want := strconv.Itoa(12 * size); m[1] != want || m[2] != want {
		return fmt.Errorf("%s/%s injections passed, want %s/%s", m[1], m[2], want, want)
	}
	return nil
}

// checkScale requires every case to run and zero violations on every case
// inside the resiliency bound (Lemma 2).
func checkScale(out string, size int) error {
	cases := 0
	for _, f := range tableRows(out, 7) {
		if f[4] != "yes" && f[4] != "NO" {
			continue
		}
		cases++
		if f[5] != strconv.Itoa(size) {
			return fmt.Errorf("case %v ran %s runs, want %d", f[:4], f[5], size)
		}
		if f[4] == "yes" && f[6] != "0" {
			return fmt.Errorf("case %v inside the bound has %s violations", f[:4], f[6])
		}
	}
	if cases != 29 {
		return fmt.Errorf("%d resilience cases, want 29", cases)
	}
	return nil
}

// checkFleet requires every geometry to run with no intra-shard or gateway
// violation and to isolate every whole-shard outage.
func checkFleet(out string, size int) error {
	geometries := 0
	for _, f := range tableRows(out, 7) {
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue
		}
		geometries++
		runs := strconv.Itoa(size)
		if f[3] != runs || f[4] != "0" || f[5] != "0" || f[6] != runs+"/"+runs {
			return fmt.Errorf("geometry %s nodes / %s shards: runs %s, violations %s+%s, outages isolated %s",
				f[0], f[1], f[3], f[4], f[5], f[6])
		}
	}
	if geometries != 4 {
		return fmt.Errorf("%d fleet geometries, want 4", geometries)
	}
	return nil
}

// checkRare requires both splitting estimates with their work summaries.
func checkRare(out string, _ int) error {
	if p, s := strings.Count(out, "\nP = "), strings.Count(out, "\nsimulated "); p != 2 || s != 2 {
		return fmt.Errorf("%d estimates and %d work summaries, want 2 and 2", p, s)
	}
	return nil
}

// tableRows returns the whitespace-separated fields of every output line
// with at least width fields.
func tableRows(out string, width int) [][]string {
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= width {
			rows = append(rows, f)
		}
	}
	return rows
}
