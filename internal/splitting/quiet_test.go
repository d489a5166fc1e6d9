package splitting

import (
	"math"
	"testing"
	"time"

	"ttdiag/internal/rng"
	"ttdiag/internal/tdma"
)

// quietSched is the schedule the quiet-contract checks place transmissions
// on: four senders, as in the rare-event campaign.
var quietSched = func() *tdma.Schedule {
	s, err := tdma.NewSchedule(4, 2500*time.Microsecond)
	if err != nil {
		panic(err)
	}
	return s
}()

// quietTx returns sender s's transmission of round k on quietSched.
func quietTx(k, s int) tdma.Transmission {
	start, end := quietSched.SlotWindow(k, s)
	return tdma.Transmission{Sender: tdma.NodeID(s), Round: k, Slot: s, Start: start, End: end, Payload: []byte{0xa5}}
}

// touches reports whether f changes tx's clean delivery or its sender's
// collision verdict.
func touches(f *keyedTransient, tx *tdma.Transmission) bool {
	d := f.Deliver(tx, 2, tdma.Delivery{Valid: true, Payload: tx.Payload})
	return !d.Valid || len(d.Payload) != 1 || d.Payload[0] != 0xa5 ||
		f.SenderCollision(tx, false) || !f.SenderCollision(tx, true)
}

// checkQuietAnswer asks f about every sender's transmission of round k and
// requires the tdma.Quieter contract: every transmission the Wake covers is
// left untouched; for the target, the first round the Wake does not cover
// hits or lies quietScan rounds ahead; every other sender, and the target of
// a transient that never fires, gets WakeNever.
func checkQuietAnswer(t *testing.T, f *keyedTransient, k int) {
	t.Helper()
	for s := 1; s <= quietSched.N(); s++ {
		tx := quietTx(k, s)
		w := f.QuietUntil(&tx)
		if tdma.NodeID(s) != f.target || f.thresh == 0 {
			if w != tdma.WakeNever {
				t.Fatalf("key %#x off %d thresh %d: sender %d round %d answers %+v, want WakeNever",
					f.key, f.off, f.thresh, s, k, w)
			}
			// WakeNever covers every later round; sample a window past
			// the scan bound.
			for r := k; r < k+2*quietScan; r++ {
				if later := quietTx(r, s); touches(f, &later) {
					t.Fatalf("key %#x off %d thresh %d: sender %d answered WakeNever at round %d but round %d is touched",
						f.key, f.off, f.thresh, s, k, r)
				}
			}
			continue
		}
		if w.Round < k || w.Round > k+quietScan || w.At != math.MaxInt64 {
			t.Fatalf("key %#x off %d thresh %d: target round %d answers %+v, want a round in [%d, %d] and no time bound",
				f.key, f.off, f.thresh, k, w, k, k+quietScan)
		}
		for r := k; r < w.Round; r++ {
			later := quietTx(r, s)
			if !w.Covers(&later) {
				t.Fatalf("key %#x: %+v does not cover round %d below its own round", f.key, w, r)
			}
			if touches(f, &later) {
				t.Fatalf("key %#x off %d thresh %d: round %d answered %+v, but covered round %d is touched",
					f.key, f.off, f.thresh, k, w, r)
			}
		}
		wake := quietTx(w.Round, s)
		if w.Covers(&wake) {
			t.Fatalf("key %#x: %+v covers its own wake round", f.key, w)
		}
		if !touches(f, &wake) && w.Round != k+quietScan {
			t.Fatalf("key %#x off %d thresh %d: round %d answered %+v, but the wake round neither hits nor is the scan bound %d",
				f.key, f.off, f.thresh, k, w, k+quietScan)
		}
	}
}

// TestKeyedTransientQuietContract checks the keyed transient's quiet-slot
// answer over random keys, offsets and rounds at fault probabilities from
// never to always, including the negative offsets a lane gets when its
// trial is behind the gang.
func TestKeyedTransientQuietContract(t *testing.T) {
	st := rng.NewStream(28)
	for _, q := range []float64{0, 0.05, 0.3, 1} {
		for i := 0; i < 300; i++ {
			k := st.Intn(1 << 20)
			f := &keyedTransient{
				target: tdma.NodeID(1 + st.Intn(quietSched.N())),
				thresh: uint64(q * (1 << 53)),
				key:    st.Uint64(),
				off:    st.Intn(1<<21) - k - (1 << 20),
			}
			checkQuietAnswer(t, f, k)
		}
	}
}

// FuzzKeyedTransientQuiet checks the same contract with the key, offset,
// threshold, target and round picked by the fuzzer.
func FuzzKeyedTransientQuiet(f *testing.F) {
	f.Add(uint64(1), int32(0), uint64(0), uint8(0), uint32(0))
	f.Add(uint64(0x9e3779b97f4a7c15), int32(-7), uint64(1<<53)/20, uint8(1), uint32(12))
	f.Add(uint64(42), int32(1000), uint64(1<<53)*3/10, uint8(2), uint32(99))
	f.Add(uint64(7), int32(3), uint64(1<<53), uint8(3), uint32(5))
	f.Add(uint64(3), int32(0), uint64(1), uint8(0), uint32(1<<20))
	f.Fuzz(func(t *testing.T, key uint64, off int32, thresh uint64, target uint8, round uint32) {
		fault := &keyedTransient{
			target: tdma.NodeID(1 + int(target)%quietSched.N()),
			thresh: thresh % (1<<53 + 1),
			key:    key,
			off:    int(off),
		}
		checkQuietAnswer(t, fault, int(round%(1<<24)))
	})
}
