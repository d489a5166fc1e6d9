package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment outputs")

// TestGoldenOutputs locks every experiment's rendered artifact against a
// golden file: the whole pipeline is deterministic for a fixed seed, so any
// behavioural change in the protocol, the injectors or the tuning
// procedures shows up as a diff here. Regenerate with:
//
//	go test ./internal/experiments -run TestGolden -update
func TestGoldenOutputs(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			runs := 3
			if e.ID == "table4" {
				runs = 1 // 25 simulated seconds per automotive NSR repetition
			}
			var buf bytes.Buffer
			if err := Run(e.ID, Params{Seed: 7, Runs: runs, Out: &buf}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.ID+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					path, buf.Bytes(), want)
			}
		})
	}
}
