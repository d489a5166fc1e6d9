// Command ttdiag-bench is the repository's end-to-end and per-layer
// benchmark. BENCHMARK.json at the repository root lists its workloads,
// metrics and regression bounds; workloads.go says what each workload runs.
// Every workload is a closed loop of ttdiag-experiments processes started
// with GOMAXPROCS=2, one after another, and every launch's stdout is checked.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cmd/ttdiag-bench/run.sh [-seed s] [-seconds t] [-trace 0|1] [-o result.json] [-bin cli]
//	bash cmd/ttdiag-bench/run.sh -workload name -seed s -seconds t -trace 0|1
//	bash cmd/ttdiag-bench/run.sh -compare base.json new.json
//	bash cmd/ttdiag-bench/run.sh -write-digests
//
// Without -workload it takes five samples of every workload, round-robin
// with the first workload rotating, and prints each end-to-end metric's
// median, quartiles, extremes and sample count; -trace 1 adds one traced run
// per workload with the per-layer metrics. With -workload it runs one sample
// of one workload and prints one JSON line: correct, attempted, failed, and
// the end-to-end metrics (or, with -trace 1, the per-layer ones).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

const (
	specFile    = "BENCHMARK.json"
	digestsFile = "cmd/ttdiag-bench/digests.json"
	// samplesPerWorkload is how many samples of each workload a run without
	// -workload takes.
	samplesPerWorkload = 5
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttdiag-bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// errFailed marks a run whose launches failed; its result is printed.
var errFailed = errors.New("launches failed")

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("ttdiag-bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run one sample of this workload and print one JSON result line")
		seed     = fs.Int64("seed", digestSeed, "seed of the workload inputs")
		seconds  = fs.Float64("seconds", 0, "how long one sample measures (0 = run_seconds of BENCHMARK.json)")
		traced   = fs.Int("trace", 0, "1 = also run the traced per-layer measurement")
		out      = fs.String("o", "", "also write the result as JSON to this file (without -workload)")
		bin      = fs.String("bin", "", "run this prebuilt ttdiag-experiments instead of building one")
		compare  = fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
		writeDig = fs.Bool("write-digests", false, "rewrite "+digestsFile+" from launches at seed 2007")
		calib    = fs.Bool("calibrate", false, "run the calibration kernel once and exit (the benchmark times it)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *calib {
		calibrationKernel()
		return 0, nil
	}
	root, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	sp, err := readSpec(root)
	if err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two result files")
		}
		return 0, compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		return 2, fmt.Errorf("bad arguments (see the package documentation)")
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	var w workload
	if *name != "" {
		if w, err = findWorkload(*name); err != nil {
			return 2, err
		}
	}
	b, err := newBench(root, filepath.Join(root, ".bench_build"), *bin)
	if err != nil {
		return 1, err
	}
	switch {
	case *writeDig:
		return 0, b.writeDigests()
	case *name != "":
		return driverRun(stdout, b, sp, w, *seed, *seconds, *traced == 1)
	}
	res, err := b.sampleAll(*seed, *seconds, *traced == 1)
	if err != nil {
		return 1, err
	}
	res.Env = environment(root, *bin)
	printResult(stdout, sp, res)
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if res.failed() > 0 {
		return 1, errFailed
	}
	return 0, nil
}

// unscaled are the sample values printed for context next to the metrics
// of BENCHMARK.json: the launch times before calibration scaling, and the
// calibration kernel's own time.
var unscaled = []metricSpec{
	{Name: "raw_reps_per_s", Unit: "1/s"},
	{Name: "raw_cpu_s", Unit: "s"},
	{Name: "raw_setup_s", Unit: "s"},
	{Name: "calib_s", Unit: "s"},
}

// spec is BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json and checks that it names exactly the
// workloads of the workload table.
func readSpec(root string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", specFile, err)
	}
	if len(sp.Workloads) != len(workloads) {
		return sp, fmt.Errorf("%s lists %d workloads, the benchmark has %d", specFile, len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			return sp, fmt.Errorf("%s: %w", specFile, err)
		}
	}
	if sp.RunSeconds < 1 {
		return sp, fmt.Errorf("%s: run_seconds must be at least 1", specFile)
	}
	return sp, nil
}

// metricValue is one metric of the driver result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun runs one sample of w, or with trace one traced run, and prints
// the result line. Every metric the spec lists must have been measured.
func driverRun(stdout io.Writer, b *bench, sp spec, w workload, seed int64, seconds float64, trace bool) (int, error) {
	var s sample
	var got map[string]float64
	var err error
	want := sp.EndToEnd
	if trace {
		got, err = b.traceRun(&s, w, seed, seconds)
		want = sp.PerLayer
	} else {
		s, err = b.runSample(w, seed, seconds)
		got = s.metrics
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: err == nil && s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	if s.failed == 0 && err != nil {
		return 1, err // the benchmark itself broke: print no result
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && err == nil {
			return 1, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if ok {
			line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	data, merr := json.Marshal(line)
	if merr != nil {
		return 1, merr
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// result is what a full benchmark invocation measured; -o writes it and
// -compare reads two of them.
type result struct {
	Env       map[string]string `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Samples   int               `json:"samples"`
	Workloads []*workloadResult `json:"workloads"`
	byName    map[string]*workloadResult
}

type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`

	values map[string][]float64
}

func (r *result) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// sampleAll takes samplesPerWorkload samples of every workload, round-robin,
// rotating which workload goes first, then with trace one traced run per
// workload.
func (b *bench) sampleAll(seed int64, seconds float64, trace bool) (*result, error) {
	k := samplesPerWorkload
	res := &result{Seed: seed, Seconds: seconds, Samples: k, byName: map[string]*workloadResult{}}
	for _, w := range workloads {
		wr := &workloadResult{Name: w.name, values: map[string][]float64{}}
		res.Workloads = append(res.Workloads, wr)
		res.byName[w.name] = wr
	}
	for i := 0; i < k; i++ {
		for j := range workloads {
			w := workloads[(i+j)%len(workloads)]
			wr := res.byName[w.name]
			fmt.Fprintf(os.Stderr, "sample %d/%d  %s\n", i+1, k, w.name)
			s, err := b.runSample(w, seed, seconds)
			wr.Attempted += s.attempted
			wr.Failed += s.failed
			if err != nil {
				if s.failed == 0 {
					return nil, err
				}
				wr.Errors = append(wr.Errors, err.Error())
				continue
			}
			for name, v := range s.metrics {
				wr.values[name] = append(wr.values[name], v)
			}
		}
	}
	for _, w := range workloads {
		wr := res.byName[w.name]
		wr.Metrics = map[string]summary{}
		for name, v := range wr.values {
			wr.Metrics[name] = summarize(v)
		}
		if !trace {
			continue
		}
		fmt.Fprintf(os.Stderr, "traced run  %s\n", w.name)
		var s sample
		layers, err := b.traceRun(&s, w, seed, seconds)
		wr.Attempted += s.attempted
		wr.Failed += s.failed
		if err != nil {
			if s.failed == 0 {
				return nil, err
			}
			wr.Errors = append(wr.Errors, err.Error())
			continue
		}
		wr.Layers = layers
	}
	return res, nil
}

// errorRate is failed launches over attempted launches.
func (w *workloadResult) errorRate() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

func printResult(stdout io.Writer, sp spec, res *result) {
	var keys []string
	for k := range res.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "%-10s %s\n", k, res.Env[k])
	}
	fmt.Fprintf(stdout, "seed %d, %d samples of %gs per workload\n\n", res.Seed, res.Samples, res.Seconds)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tmin\tmax\tn")
	for _, wr := range res.Workloads {
		for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), unscaled...) {
			s, ok := wr.Metrics[m.Name]
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t\t\t\t\t0\n", wr.Name, m.Name, m.Unit)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%d\n",
				wr.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		fmt.Fprintf(tw, "%s\terror_rate\tfraction\t%.4g\t(%d of %d launches failed)\t\t\t\t\n",
			wr.Name, wr.errorRate(), wr.Failed, wr.Attempted)
	}
	tw.Flush()
	for _, wr := range res.Workloads {
		for _, e := range wr.Errors {
			fmt.Fprintf(stdout, "error: %s\n", e)
		}
	}
	traced := false
	for _, wr := range res.Workloads {
		traced = traced || wr.Layers != nil
	}
	if !traced {
		return
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(tw, "per-layer metric\tunit")
	for _, wr := range res.Workloads {
		fmt.Fprintf(tw, "\t%s", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range sp.PerLayer {
		fmt.Fprintf(tw, "%s\t%s", m.Name, m.Unit)
		for _, wr := range res.Workloads {
			if v, ok := wr.Layers[m.Name]; ok {
				fmt.Fprintf(tw, "\t%.4g", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// environment describes the machine and code a result was measured on.
func environment(root, bin string) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprintf("%d (each launch)", childProcs),
		"cpu":        "unknown",
		"kernel":     "unknown",
		"commit":     "unknown",
		"cli":        "built from the commit",
	}
	if bin != "" {
		env["cli"] = bin
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(data))
	}
	// Only a checkout's own .git counts: git would otherwise search the
	// parent directories and could report another repository's commit.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	return env
}

func readDigests(path string) (map[string]map[string]string, error) {
	d := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// writeDigests launches every workload at both sizes at digestSeed and
// records the stdout digests. Each launch is made twice and must repeat.
func (b *bench) writeDigests() error {
	b.digests = map[string]map[string]string{}
	for _, w := range workloads {
		var s sample
		for _, kind := range []string{"setup", "full", "setup", "full"} {
			size := w.setupSize
			if kind == "full" {
				size = w.size
			}
			if _, err := b.try(&s, w, kind, size, digestSeed); err != nil {
				return err
			}
		}
		b.digests[w.name] = map[string]string{
			"setup": b.seen[fmt.Sprintf("%s/setup/%d", w.name, digestSeed)],
			"full":  b.seen[fmt.Sprintf("%s/full/%d", w.name, digestSeed)],
		}
	}
	data, err := json.MarshalIndent(b.digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.root, digestsFile), append(data, '\n'), 0o644)
}
