package trace

import (
	"strings"
	"testing"
)

func TestGanttRender(t *testing.T) {
	events := []Event{
		{Round: 0, Kind: KindTransmit, Node: 1, Detail: "correct"},
		{Round: 1, Kind: KindTransmit, Node: 2, Detail: "benign"},
		{Round: 2, Kind: KindIsolation, Node: 3, Subject: 2},
		{Round: 3, Kind: KindReintegration, Node: 1, Subject: 2},
		{Round: 4, Kind: KindViewChange, Node: 1},
	}
	out := Gantt{Nodes: 3}.Render(events)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // ruler + 3 nodes + legend
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	row := func(n int) string { return lines[n] }
	if !strings.Contains(row(1), ".") {
		t.Errorf("node 1 row missing clean tx:\n%s", out)
	}
	if !strings.Contains(row(2), "!") {
		t.Errorf("node 2 row missing disturbed tx:\n%s", out)
	}
	if !strings.Contains(row(3), "X") || !strings.Contains(row(2), "X") {
		t.Errorf("isolation glyph missing:\n%s", out)
	}
	if !strings.Contains(row(1), "R") || !strings.Contains(row(2), "R") {
		t.Errorf("reintegration glyph missing:\n%s", out)
	}
	if !strings.Contains(row(1), "V") {
		t.Errorf("view glyph missing:\n%s", out)
	}
}

func TestGanttGlyphPriority(t *testing.T) {
	events := []Event{
		{Round: 0, Kind: KindTransmit, Node: 1, Detail: "correct"},
		{Round: 0, Kind: KindIsolation, Node: 1, Subject: 1},
	}
	out := Gantt{Nodes: 1}.Render(events)
	if !strings.Contains(out, "X") {
		t.Fatalf("isolation did not win the cell:\n%s", out)
	}
}

func TestGanttWindow(t *testing.T) {
	events := []Event{
		{Round: 5, Kind: KindTransmit, Node: 1, Detail: "benign"},
		{Round: 15, Kind: KindTransmit, Node: 1, Detail: "benign"},
	}
	out := Gantt{Nodes: 1, FromRound: 10, ToRound: 20}.Render(events)
	row := strings.Split(out, "\n")[1]
	if strings.Count(row, "!") != 1 {
		t.Fatalf("window not applied:\n%s", out)
	}
	if (Gantt{Nodes: 1, FromRound: 9, ToRound: 3}).Render(events) != "" {
		t.Fatal("inverted window not empty")
	}
	if (Gantt{Nodes: 0}).Render(events) != "" {
		t.Fatal("zero nodes not empty")
	}
}
