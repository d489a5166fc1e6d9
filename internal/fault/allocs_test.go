// Allocation-ceiling tests for the disturbances on the bus hot path. The
// race detector instruments allocations and testing.AllocsPerRun becomes
// meaningless under it, so this file is excluded from -race builds.

//go:build !race

package fault

import (
	"bytes"
	"testing"

	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// TestMaliciousSyndromeDeliverAllocs pins the corrupted payload's buffer
// reuse: once the first transmission sized it, corrupting a transmission
// of the same length for every receiver, round after round, allocates
// nothing, and each transmission still draws fresh bytes.
func TestMaliciousSyndromeDeliverAllocs(t *testing.T) {
	m := NewMaliciousSyndrome(2, rng.NewStream(1))
	tx := txAt(paperSched, 2, 0, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	in := tdma.Delivery{Valid: true, Payload: tx.Payload}
	m.Deliver(tx, 1, in)
	prev := make([]byte, len(tx.Payload))
	fresh := 0
	if avg := testing.AllocsPerRun(100, func() {
		tx.Round++
		for rcv := tdma.NodeID(1); rcv <= 4; rcv++ {
			d := m.Deliver(tx, rcv, in)
			if rcv == 1 && !bytes.Equal(d.Payload, prev) {
				fresh++
				copy(prev, d.Payload)
			}
		}
	}); avg != 0 {
		t.Fatalf("MaliciousSyndrome.Deliver allocates %.1f times per transmission, want 0", avg)
	}
	if fresh < 90 {
		t.Fatalf("only %d of 101 transmissions drew a fresh payload", fresh)
	}
}
