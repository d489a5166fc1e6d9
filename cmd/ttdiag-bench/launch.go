package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Setup launches per run: at least setupMin, and more while they add up to
// less than setupMinTime, so a setup of a few milliseconds still gets a
// steady median.
const (
	setupMin     = 11
	setupMax     = 201
	setupMinTime = time.Second
)

// bench launches the CLI and checks what it prints.
type bench struct {
	root string // repository root
	work string // scratch directory for binaries and launch files
	cli  string // the ttdiag-experiments binary
	self string // this benchmark's binary, which runs the calibration kernel

	// digests are the committed stdout digests at digestSeed, by workload
	// and size kind ("setup" or "full").
	digests map[string]map[string]string
	// seen holds the digest of the first launch of each workload, size kind
	// and seed, so output that differs between samples counts as failed.
	seen map[string]string
}

// newBench prepares launches of the CLI at cli, or, when cli is empty, of
// one built from root into work.
func newBench(root, work, cli string) (*bench, error) {
	b := &bench{root: root, work: work, cli: cli, seen: map[string]string{}}
	if err := os.MkdirAll(filepath.Join(b.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	var err error
	if b.self, err = os.Executable(); err != nil {
		return nil, err
	}
	if b.digests, err = readDigests(filepath.Join(root, digestsFile)); err != nil {
		return nil, err
	}
	if b.cli == "" {
		b.cli = filepath.Join(b.work, "bin", "ttdiag-experiments")
		if err := b.goBuild(root, b.cli, "./cmd/ttdiag-experiments"); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// goBuild builds pkg from dir into out.
func (b *bench) goBuild(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

func (b *bench) tmp(name string) string { return filepath.Join(b.work, "tmp", name) }

// launch is one finished CLI process.
type launch struct {
	wall, cpu float64 // seconds
	rssMB     float64 // peak resident set
	out       []byte  // stdout
}

// start runs bin with args and GOMAXPROCS=childProcs and waits for it.
func start(bin string, args []string) (launch, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return launch{}, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	l := launch{wall: wall, out: out.Bytes()}
	ps := cmd.ProcessState
	l.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		l.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return l, nil
}

// sample is one run of one workload: its end-to-end metrics, and the
// launches it attempted and how many failed.
type sample struct {
	attempted, failed int
	metrics           map[string]float64
}

// calibrate times one run of the calibration kernel in a fresh process.
func (b *bench) calibrate() (float64, error) {
	l, err := start(b.self, []string{"-calibrate"})
	return l.wall, err
}

// try launches w at size and seed, checks the output, and counts the
// launch in s.
func (b *bench) try(s *sample, w workload, kind string, size int, seed int64, extra ...string) (launch, error) {
	s.attempted++
	l, err := start(b.cli, w.args(size, seed, b.tmp("metrics.json"), extra...))
	if err == nil {
		err = b.verify(w, kind, size, seed, l.out)
	}
	if err != nil {
		s.failed++
	}
	return l, err
}

// verify checks one launch's stdout: the workload's own check, the committed
// digest at digestSeed, and equality with the first launch of the same
// workload, size kind and seed.
func (b *bench) verify(w workload, kind string, size int, seed int64, out []byte) error {
	if err := w.check(string(out), size); err != nil {
		return fmt.Errorf("%s: wrong output at seed %d: %v", w.name, seed, err)
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	key := fmt.Sprintf("%s/%s/%d", w.name, kind, seed)
	want, ok := b.seen[key]
	if !ok && seed == digestSeed {
		want, ok = b.digests[w.name][kind]
	}
	if !ok {
		b.seen[key] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("%s: %s launch at seed %d printed stdout with digest %s, want %s", w.name, kind, seed, got, want)
	}
	return nil
}

// runSample runs w once: setup launches, then measured launches, one after
// another, until seconds have passed. It stops at the first failed launch.
//
// Setup launches run at digestSeed, whose output is committed: the work of
// a single repetition varies with the seed, which would swamp the
// construction cost setup_s is there to watch. The first setup launch only
// warms the page cache and is not timed. Measured launches run at seed.
//
// The calibration kernel runs before the timed setup launches and after
// the setup phase and every measured launch; each time is scaled by
// calibRef over the mean of the kernel times on either side of it (see
// calibRef). Peak RSS is the mean over the measured launches, because where
// the collector happens to run spreads a launch's peak evenly over a band
// of a fifth of its size; the other metrics are medians.
func (b *bench) runSample(w workload, seed int64, seconds float64) (sample, error) {
	s := sample{metrics: map[string]float64{}}
	if _, err := b.try(&s, w, "setup", w.setupSize, digestSeed); err != nil {
		return s, err
	}
	kBefore, err := b.calibrate()
	if err != nil {
		return s, err
	}
	var setups []float64
	t0 := time.Now()
	for len(setups) < setupMin || (len(setups) < setupMax && time.Since(t0) < setupMinTime) {
		l, err := b.try(&s, w, "setup", w.setupSize, digestSeed)
		if err != nil {
			return s, err
		}
		setups = append(setups, l.wall)
	}
	kAfter, err := b.calibrate()
	if err != nil {
		return s, err
	}
	// scale converts a time measured between two kernel runs to the
	// reference VM's.
	scale := func(kBefore, kAfter float64) float64 { return calibRef / ((kBefore + kAfter) / 2) }
	setup := summarize(setups).Median
	s.metrics["setup_s"] = setup * scale(kBefore, kAfter)
	var rate, cpus, rss, walls, rawCPUs []float64
	kernels := []float64{kBefore, kAfter}
	t0 = time.Now()
	for len(rate) == 0 || time.Since(t0).Seconds() < seconds {
		l, err := b.try(&s, w, "full", w.size, seed)
		if err != nil {
			return s, err
		}
		kBefore = kAfter
		if kAfter, err = b.calibrate(); err != nil {
			return s, err
		}
		kernels = append(kernels, kAfter)
		f := scale(kBefore, kAfter)
		rate = append(rate, float64(w.reps())/(l.wall*f))
		cpus = append(cpus, l.cpu*f)
		rss = append(rss, l.rssMB)
		walls = append(walls, l.wall)
		rawCPUs = append(rawCPUs, l.cpu)
	}
	s.metrics["reps_per_s"] = summarize(rate).Median
	s.metrics["cpu_s"] = summarize(cpus).Median
	s.metrics["peak_rss_mb"] = mean(rss)
	s.metrics["raw_reps_per_s"] = float64(w.reps()) / summarize(walls).Median
	s.metrics["raw_cpu_s"] = summarize(rawCPUs).Median
	s.metrics["raw_setup_s"] = setup
	s.metrics["calib_s"] = summarize(kernels).Median
	return s, nil
}
