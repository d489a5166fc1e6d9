package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf)
	tb.row("a", "bb", "ccc")
	tb.rule(3)
	tb.row("longer", "x", "y")
	if err := tb.flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Columns align: the rule row contains dashes under each column.
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("rule row missing: %q", lines[1])
	}
}

func TestMsFormatting(t *testing.T) {
	for _, tt := range []struct {
		d    time.Duration
		want string
	}{
		{-time.Second, "-"},
		{517500 * time.Microsecond, "0.5175s"},
		{25 * time.Second, "25s"},
	} {
		if got := ms(tt.d); got != tt.want {
			t.Errorf("ms(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestAsciiPlot(t *testing.T) {
	p := asciiPlot{width: 21, height: 5, glyphs: []byte{'a', 'b'}, labels: []string{"one", "two"}}
	out := p.render([]float64{0, 1, 2}, [][]float64{{0, 0.5, 1}, {1, 1, 1}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatalf("glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "1.0 |") || !strings.Contains(out, "0.0 |") {
		t.Fatalf("y ticks missing:\n%s", out)
	}
	if !strings.Contains(out, "a=one") || !strings.Contains(out, "b=two") {
		t.Fatalf("legend missing:\n%s", out)
	}
	// Degenerate inputs are safe.
	if got := p.render(nil, nil); got != "" {
		t.Fatalf("empty xs produced output: %q", got)
	}
	if got := (asciiPlot{}).render([]float64{1}, nil); got != "" {
		t.Fatalf("zero size produced output: %q", got)
	}
	// Constant x still renders.
	if got := p.render([]float64{5, 5}, [][]float64{{0.2, 0.9}}); got == "" {
		t.Fatal("constant x produced nothing")
	}
}

// TestRenderCampaignFailedAudit pins the campaign exit status: a row with
// failed audits still renders the whole table, then fails the experiment.
func TestRenderCampaignFailedAudit(t *testing.T) {
	var buf bytes.Buffer
	rows := []CampaignRow{
		{Class: "ok", Runs: 3, Passed: 3},
		{Class: "broken", Runs: 3, Passed: 1, FirstFailure: "run 1: disagreement"},
	}
	err := renderCampaign(Params{Out: &buf}, rows)
	if err == nil || !strings.Contains(err.Error(), "2 injections failed") {
		t.Fatalf("renderCampaign error = %v, want 2 failed injections", err)
	}
	for _, want := range []string{"ok", "3/3", "broken", "1/3", "run 1: disagreement", "4/6 injections passed their audits"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := renderCampaign(Params{Out: &buf}, rows[:1]); err != nil {
		t.Fatalf("all audits passed but renderCampaign = %v", err)
	}
}
