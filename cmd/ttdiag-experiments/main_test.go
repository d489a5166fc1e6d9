package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ttdiag/internal/metrics"
	"ttdiag/internal/trace"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "fig2", "-runs", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestSec8CampaignsPass runs each Sec. 8 fault-injection campaign through
// the CLI: every audit passes, so each exits without error (a failed audit
// would make run return one).
func TestSec8CampaignsPass(t *testing.T) {
	for _, id := range []string{"sec8-bursts", "sec8-pr", "sec8-malicious", "sec8-clique"} {
		if err := run([]string{"-run", id, "-runs", "2"}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestSec8SingleCampaign runs one Sec. 8 campaign by ID: only that
// campaign's table is written, followed by its audit summary.
func TestSec8SingleCampaign(t *testing.T) {
	path := t.TempDir() + "/report.txt"
	if err := run([]string{"-run", "sec8-pr", "-runs", "2", "-out", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	if n := strings.Count(report, "==> "); n != 1 || !strings.Contains(report, "==> sec8-pr ") {
		t.Fatalf("want exactly the sec8-pr section, got %d sections:\n%s", n, report)
	}
	if !strings.Contains(report, "2/2 injections passed their audits") {
		t.Fatalf("audit summary missing:\n%s", report)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	if err := run([]string{"-run", "sec8-bursts", "-runs", "2", "-workers", "2",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

func TestOutFlag(t *testing.T) {
	path := t.TempDir() + "/report.txt"
	if err := run([]string{"-run", "fig2", "-out", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("report file empty")
	}
}

func TestMetricsFlag(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	if err := run([]string{"-run", "sec8-pr", "-runs", "2", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != metrics.ReportVersion || rep.Tool != "ttdiag-experiments" {
		t.Fatalf("bad report header: %+v", rep)
	}
	snap, ok := rep.Experiments["sec8-pr"]
	if !ok {
		t.Fatalf("report misses sec8-pr: %v", rep.Experiments)
	}
	if snap.Counters["protocol/steps"] == 0 || len(snap.Series) == 0 {
		t.Fatalf("report under-filled: %+v", snap)
	}
}

func TestTraceFlag(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := run([]string{"-run", "sec8-pr", "-runs", "2", "-workers", "4", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	notes := 0
	for _, e := range events {
		if e.Kind == trace.KindNote {
			notes++
		}
	}
	if notes != 2 {
		t.Fatalf("got %d run-boundary notes, want 2 (trace must force serial execution)", notes)
	}
}

// TestSec8BurstsDefaultIsLanePacked pins the default campaign path end to
// end: an untraced sec8-bursts run advances its 12 classes × 20 repetitions
// as lane-packed gangs (16 + 4 lanes per class), which only the lane-packed
// path accounts in the batch/* instruments.
func TestSec8BurstsDefaultIsLanePacked(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	if err := run([]string{"-run", "sec8-bursts", "-runs", "20", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	snap := rep.Experiments["sec8-bursts"]
	if got := snap.Counters["batch/lanes"]; got != 240 {
		t.Fatalf("batch/lanes = %d, want 240", got)
	}
	if got := snap.Counters["batch/gangs"]; got != 24 {
		t.Fatalf("batch/gangs = %d, want 24", got)
	}
}

// TestFleetShardsAreLanePacked pins the fleet's shard phase end to end: one
// repetition of the default sweep runs its 4 + 16 + 16 + 64 shards as lanes
// of 4 + 4 + 16 + 64 gangs (the 16-node shards of the 256-node fleet pack
// four to a word, 64-node shards one).
func TestFleetShardsAreLanePacked(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	if err := run([]string{"-run", "fleet-resilience", "-runs", "1", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	snap := rep.Experiments["fleet-resilience"]
	if got := snap.Counters["batch/lanes"]; got != 100 {
		t.Fatalf("batch/lanes = %d, want 100", got)
	}
	if got := snap.Counters["batch/gangs"]; got != 88 {
		t.Fatalf("batch/gangs = %d, want 88", got)
	}
}

// TestSec8BurstsTraceRunsPerRepetition: the same command with -trace still
// runs lane-packed gangs, and the stream carries one boundary note per
// repetition.
func TestSec8BurstsTraceRunsPerRepetition(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.jsonl"
	if err := run([]string{"-run", "sec8-bursts", "-runs", "20", "-metrics", dir + "/metrics.json", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Experiments["sec8-bursts"].Counters["batch/lanes"]; got != 240 {
		t.Fatalf("traced batch/lanes = %d, want 240", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	notes := 0
	for _, e := range events {
		if e.Kind == trace.KindNote {
			notes++
		}
	}
	if notes != 240 {
		t.Fatalf("got %d run-boundary notes, want 240", notes)
	}
}

// TestBatchedFlagRemoved: lane packing is the default, not an option.
func TestBatchedFlagRemoved(t *testing.T) {
	if err := run([]string{"-run", "fig2", "-batched"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-batched: got %v, want an unknown-flag error", err)
	}
}

func TestProgressFlags(t *testing.T) {
	// -progress-addr "127.0.0.1:0" binds an ephemeral port; the run must
	// still terminate and the progress counter must have fired.
	if err := run([]string{"-run", "fig2", "-runs", "1", "-progress", "-progress-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedExperimentWritesMetrics: an experiment that fails still leaves
// its metrics report behind, and the run returns the experiment's error.
func TestFailedExperimentWritesMetrics(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	err := run([]string{"-run", "fleet-resilience", "-fleet", "3", "-shards", "2", "-runs", "1", "-metrics", path})
	if err == nil || !strings.Contains(err.Error(), "fleet-resilience") {
		t.Fatalf("got %v, want the fleet-resilience error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report of the failed run: %v", err)
	}
}

// TestInvalidSizesAreUsageErrors: a campaign size no run can have is an
// invalid command line, which exits 2 before any experiment runs or any
// report is written, instead of running the default size under the given
// one's name. 0 keeps its default meaning where it has one.
func TestInvalidSizesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-runs", "-3"}, {"-runs", "0"}, {"-splitting", "-5"}, {"-levels", "-2"},
		{"-fleet", "-5"}, {"-shards", "-2"}, {"-workers", "-1"},
	} {
		path := t.TempDir() + "/r.json"
		err := run(append([]string{"-run", "sec8-pr", "-metrics", path}, args...))
		if code := exitCode(err); err == nil || code != 2 {
			t.Errorf("%v: got %v (exit %d), want a usage error (exit 2)", args, err, code)
		}
		if _, serr := os.Stat(path); serr == nil {
			t.Errorf("%v: a report was written for an invalid command line", args)
		}
	}
	if code := exitCode(run([]string{"-definitely-not-a-flag"})); code != 2 {
		t.Errorf("unknown flag exits %d, want 2", code)
	}
	if code := exitCode(run([]string{"-run", "nope"})); code != 1 {
		t.Errorf("unknown experiment exits %d, want 1", code)
	}
	if err := run([]string{"-run", "fig2", "-runs", "1", "-workers", "0", "-splitting", "0", "-levels", "0", "-fleet", "0", "-shards", "0"}); err != nil {
		t.Errorf("0 as the default: %v", err)
	}
}

// TestReportRecordsRunsPerformed: the report's run count is the number of
// repetitions the campaign performed.
func TestReportRecordsRunsPerformed(t *testing.T) {
	path := t.TempDir() + "/r.json"
	if err := run([]string{"-run", "sec8-pr", "-runs", "3", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep metrics.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if lanes := rep.Experiments["sec8-pr"].Counters["batch/lanes"]; rep.Runs != 3 || lanes != 3 {
		t.Fatalf("report records %d runs, the campaign ran %d lanes; want 3 and 3", rep.Runs, lanes)
	}
}
