package trace

import (
	"fmt"
	"strings"
)

// Gantt renders recorded events as a per-round ASCII timeline: one column
// per round, one row per node, with a compact glyph per event kind. It is
// the textual analogue of Fig. 1's round pipeline and is used by the
// ttdiag-sim CLI.
//
// Glyphs (higher in the list wins when events coincide):
//
//	X  isolation decided         V  view change
//	R  reintegration             !  benign/asymmetric/malicious transmission
//	d  diagnosis emitted         .  clean transmission + job
type Gantt struct {
	// Nodes is the number of nodes (rows).
	Nodes int
	// FromRound / ToRound bound the rendered window; ToRound == 0 renders
	// through the last recorded round.
	FromRound, ToRound int
}

// glyph ranks: higher value wins the cell.
var ganttRank = map[byte]int{'.': 1, 'd': 2, '!': 3, 'R': 4, 'V': 5, 'X': 6}

// Render lays the events out.
func (g Gantt) Render(events []Event) string {
	if g.Nodes < 1 {
		return ""
	}
	last := g.ToRound
	if last == 0 {
		for _, e := range events {
			if e.Round > last {
				last = e.Round
			}
		}
	}
	first := g.FromRound
	if last < first {
		return ""
	}
	width := last - first + 1
	rows := make([][]byte, g.Nodes+1)
	for n := 1; n <= g.Nodes; n++ {
		rows[n] = []byte(strings.Repeat(" ", width))
	}
	put := func(node, round int, glyph byte) {
		if node < 1 || node > g.Nodes || round < first || round > last {
			return
		}
		cell := &rows[node][round-first]
		if ganttRank[glyph] > ganttRank[*cell] {
			*cell = glyph
		}
	}
	for _, e := range events {
		switch e.Kind {
		case KindTransmit:
			glyph := byte('.')
			if e.Detail != "" && e.Detail != "correct" {
				glyph = '!'
			}
			put(e.Node, e.Round, glyph)
		case KindJobRun:
			put(e.Node, e.Round, '.')
		case KindDiagnosis:
			put(e.Node, e.Round, 'd')
		case KindIsolation:
			put(e.Node, e.Round, 'X')
			put(e.Subject, e.Round, 'X')
		case KindReintegration:
			put(e.Node, e.Round, 'R')
			put(e.Subject, e.Round, 'R')
		case KindViewChange:
			put(e.Node, e.Round, 'V')
		}
	}

	var b strings.Builder
	// Round ruler, one tick every 10 columns.
	fmt.Fprintf(&b, "%8s ", "round")
	ruler := make([]byte, width)
	for i := range ruler {
		ruler[i] = ' '
		if (first+i)%10 == 0 {
			ruler[i] = '|'
		}
	}
	b.Write(ruler)
	fmt.Fprintf(&b, "  (%d..%d)\n", first, last)
	for n := 1; n <= g.Nodes; n++ {
		fmt.Fprintf(&b, "%8s %s\n", fmt.Sprintf("node %d", n), rows[n])
	}
	b.WriteString("legend: . clean  ! disturbed tx  X isolation  R reintegration  V view change\n")
	return b.String()
}
