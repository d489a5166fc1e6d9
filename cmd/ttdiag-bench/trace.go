package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// selfLayers are the modules whose flat CPU time the traced run attributes
// by name; every other frame outside the Go runtime counts as "other".
var selfLayers = []string{"core", "tdma", "fault", "sim", "campaign", "experiments", "fleet", "splitting", "metrics", "rng"}

// traceRun measures w's per-layer metrics: (a) one profiled CLI launch with
// a metrics report, bracketed by two untraced launches that are its
// baseline, then (b) and (c) one probe process that times experiments.Run
// and warm calls into each layer, in batches seconds/100 long. A baseline
// taken minutes apart would carry the drift of a shared host.
func (b *bench) traceRun(s *sample, w workload, seed int64, seconds float64) (map[string]float64, error) {
	if _, err := b.try(s, w, "setup", w.setupSize, digestSeed); err != nil {
		return nil, err
	}
	res := map[string]float64{}
	prof, report := b.tmp("cpu.pprof"), b.tmp("metrics.json")
	extra := []string{"-cpuprofile", prof}
	if !w.metrics {
		extra = append(extra, "-metrics", report)
	}
	before, err := b.try(s, w, "full", w.size, seed)
	if err != nil {
		return nil, err
	}
	l, err := b.try(s, w, "full", w.size, seed, extra...)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(report)
	if err != nil {
		return nil, err
	}
	if err := workCounts(data, string(l.out), res); err != nil {
		return nil, err
	}
	after, err := b.try(s, w, "full", w.size, seed)
	if err != nil {
		return nil, err
	}
	baseWall := (before.wall + after.wall) / 2
	res["trace.overhead_pct"] = 100 * (l.wall/baseWall - 1)
	res["campaign.busy_ratio"] = (before.cpu + after.cpu) / 2 / (baseWall * float64(w.workers))

	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", b.cli, prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := foldTop(string(top))
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		res[k] = v
	}

	probe := filepath.Join(b.work, "bin", "ttdiag-bench-probe")
	if err := b.goBuild(filepath.Join(b.root, "cmd", "ttdiag-bench"), probe, "./probe"); err != nil {
		return nil, err
	}
	pl, err := start(probe, w.args(w.size, seed, report,
		"-n", strconv.Itoa(w.n), "-batch", time.Duration(seconds/100*float64(time.Second)).String()))
	if err != nil {
		return nil, err
	}
	var layer map[string]float64
	if err := json.Unmarshal(pl.out, &layer); err != nil {
		return nil, fmt.Errorf("probe output: %w", err)
	}
	for k, v := range layer {
		res[k] = v
	}
	res["cli.overhead_s"] = after.wall - layer["experiments.run_s"]
	return res, nil
}

// foldTop folds `go tool pprof -top -nodecount=0` output into percent
// shares of flat CPU time: one "<layer>.self_share" per selfLayers entry
// plus "other.self_share", and the runtime's allocation and GC work as
// "runtime.alloc_share" and "runtime.gc_share". The shares sum to 100.
func foldTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	rows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		flat[shareOf(strings.Join(f[5:], " "))] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top output has no samples")
	}
	res := map[string]float64{"runtime.alloc_share": 0, "runtime.gc_share": 0, "other.self_share": 0}
	for _, l := range selfLayers {
		res[l+".self_share"] = 0
	}
	for k, v := range flat {
		res[k] = 100 * v / total
	}
	return res, nil
}

// Runtime frames doing allocation and memory copies versus garbage
// collection, matched by substring; the first list wins. Other runtime
// frames (scheduler, locks, syscalls) count as "other".
var (
	allocFrames = []string{"alloc", "newobject", "newarray", "makeslice", "growslice", "nextFree", "mcache", "MCache",
		"mcentral", "mheap", "memclr", "memmove", "duffcopy", "duffzero", "heapSetType", "writeHeapBits",
		"publicationBarrier", "typedmemmove", "typedslicecopy"}
	gcFrames = []string{"gc", "GC", "mark", "Mark", "scan", "grey", "sweep", "Sweep", "wbBuf", "Barrier",
		"findObject", "heapBits", "typePointers", "spanOf", "(*mspan).base", "divideByElemSize", "pageIndexOf", "Assist"}
)

// shareOf maps a pprof function name to its share key by the package of
// the frame.
func shareOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name other packages inside brackets
	}
	// A name without a package is a runtime assembly routine such as
	// gcWriteBarrier.
	pkg := "runtime"
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "ttdiag/internal/"):
		l := strings.TrimPrefix(pkg, "ttdiag/internal/")
		for _, s := range selfLayers {
			if s == l {
				return l + ".self_share"
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		name := strings.TrimPrefix(fn, pkg)
		for _, s := range allocFrames {
			if strings.Contains(name, s) {
				return "runtime.alloc_share"
			}
		}
		for _, s := range gcFrames {
			if strings.Contains(name, s) {
				return "runtime.gc_share"
			}
		}
	}
	return "other.self_share"
}

var (
	nodeRoundsRe = regexp.MustCompile(`\((\d+) node-rounds`)
	relErrRe     = regexp.MustCompile(`relative error (\S+)%`)
)

// workCounts adds the work a launch did, from its metrics report and
// stdout: node-rounds stepped, faulty transmissions, splitting restores,
// and the relative error of the first splitting estimate. A count the
// workload does not report stays 0.
func workCounts(report []byte, stdout string, res map[string]float64) error {
	var rep struct {
		Experiments map[string]struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return fmt.Errorf("metrics report: %w", err)
	}
	for _, k := range []string{"sim.node_rounds", "tdma.faulty_tx", "splitting.restores", "splitting.rel_err"} {
		res[k] = 0
	}
	for _, e := range rep.Experiments {
		for name, v := range e.Counters {
			switch {
			case name == "protocol/steps":
				res["sim.node_rounds"] += v
			case name == "tx/benign" || name == "tx/malicious" || name == "tx/asymmetric":
				res["tdma.faulty_tx"] += v
			case strings.HasSuffix(name, "/checkpoint_restores"):
				res["splitting.restores"] += v
			}
		}
	}
	if res["sim.node_rounds"] == 0 {
		for _, m := range nodeRoundsRe.FindAllStringSubmatch(stdout, -1) {
			v, _ := strconv.ParseFloat(m[1], 64) // the pattern admits digits only
			res["sim.node_rounds"] += v
		}
	}
	if m := relErrRe.FindStringSubmatch(stdout); m != nil {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil && !math.IsInf(v, 0) {
			res["splitting.rel_err"] = v / 100
		}
	}
	return nil
}
