package core

import (
	"math/bits"
	"strings"
	"testing"
)

// tallyPlanes fills the 1-based planes op/know from data, 16 bytes per row
// (op word, know word), restricted to the live node bits allB; rows beyond
// the data stay as they are. It returns the unread data.
func tallyPlanes(op, know []uint64, allB uint64, data []byte) []byte {
	for j := 1; j < len(op) && len(data) >= 16; j++ {
		var o, k uint64
		for i := 0; i < 8; i++ {
			o |= uint64(data[i]) << uint(8*i)
			k |= uint64(data[8+i]) << uint(8*i)
		}
		data = data[16:]
		op[j], know[j] = o&k&allB, k&allB
	}
	return data
}

// FuzzVoteTally checks the votes taken from a shared round's tally against
// the full vote: a gang base matrix is tallied, and an observer matrix —
// the base with the rows of a mask replaced, in a gang of the same or
// another width — is voted once through the forced correction (same width only) and once
// through the protocol's vote, which picks correction or full vote by the
// number of differing rows. Every path must give voteAllLanes' consistent
// vector and vote classification, and leave the tally's counters equal to
// the counts of its matrix. The seeds double as a regular seeded corpus in
// CI.
func FuzzVoteTally(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(16), uint64(0b0110), []byte{0xff, 0x0f, 0x03, 0x0c, 0x00, 0x00, 0x05, 0x0a, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99})
	f.Add(uint8(4), uint8(16), uint8(3), uint64(0b1), []byte{0xaa, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0xf0, 0x5a, 0xa5, 0xc3, 0x3c})
	f.Add(uint8(8), uint8(8), uint8(8), uint64(0xff), []byte{0xde, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66})
	f.Add(uint8(64), uint8(1), uint8(1), uint64(1<<5|1<<40), []byte("a loud round at N=64: thirty-one malicious senders"))
	f.Add(uint8(7), uint8(2), uint8(9), uint64(0b1010101), []byte{0x01, 0x80, 0x42, 0x24, 0x18, 0x81, 0x00, 0xff})
	f.Add(uint8(16), uint8(4), uint8(4), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, baseLanesRaw, obsLanesRaw uint8, changed uint64, data []byte) {
		n := int(nRaw)%MaxPackedN + 1
		baseRep := laneReplicator(n, int(baseLanesRaw)%BatchLanes(n)+1)
		obsRep := laneReplicator(n, int(obsLanesRaw)%BatchLanes(n)+1)
		laneAll := PlaneMask(n)
		baseAll, obsAll := baseRep*laneAll, obsRep*laneAll

		baseOp, baseKnow := make([]uint64, n+1), make([]uint64, n+1)
		data = tallyPlanes(baseOp, baseKnow, baseAll, data)
		// The observer sees the base in its own lanes and replaces the rows
		// of `changed` with the rest of the data (ε when it runs out).
		obsOp, obsKnow := make([]uint64, n+1), make([]uint64, n+1)
		for j := 1; j <= n; j++ {
			obsOp[j], obsKnow[j] = baseOp[j]&obsAll, baseKnow[j]&obsAll
		}
		for rem := changed & laneAll; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem) + 1
			o, k := make([]uint64, 2), make([]uint64, 2)
			data = tallyPlanes(o, k, obsAll, data)
			obsOp[j], obsKnow[j] = o[1], k[1]
		}
		var differ uint64
		for j := 1; j <= n; j++ {
			if obsOp[j] != baseOp[j] || obsKnow[j] != baseKnow[j] {
				differ |= 1 << uint(j-1)
			}
		}

		var want laneVotes
		wantOp, wantKnown := voteAllLanes(obsOp, obsKnow, n, obsRep, &want)
		wantH, wantF := tallyLanes(obsOp, obsKnow, n, obsRep)
		check := func(path string, gotOp, gotKnown uint64, got laneVotes) {
			t.Helper()
			diff := (gotOp ^ wantOp) | (gotKnown ^ wantKnown) |
				(got.any ^ want.any) | (got.faulty ^ want.faulty) | (got.tied ^ want.tied)
			if diff != 0 {
				lane := bits.TrailingZeros64(diff) / n
				t.Fatalf("n=%d base %#x observer %#x, rows %#x differ: %s lane %d votes %#x/%#x (any %#x faulty %#x tied %#x), full vote %#x/%#x (any %#x faulty %#x tied %#x)",
					n, baseRep, obsRep, differ, path, lane, gotOp, gotKnown, got.any, got.faulty, got.tied,
					wantOp, wantKnown, want.any, want.faulty, want.tied)
			}
		}

		tally := NewSharedRound(n)
		tally.record(baseOp, baseKnow, baseRep)
		if baseRep == obsRep {
			h, f := tally.correct(obsOp, obsKnow, differ)
			if h != wantH || f != wantF {
				t.Fatalf("n=%d lanes %#x, rows %#x differ: corrected counters differ from the recount", n, obsRep, differ)
			}
			var got laneVotes
			gotOp, gotKnown := finishVote(&h, &f, &got)
			check("correction", gotOp, gotKnown, got)
		}

		// Through the protocol: a hit leaves the base tallied, a miss (too
		// many rows, or another width) tallies the observer.
		p := &BatchProtocol{n: n, laneRep: obsRep, op: obsOp, know: obsKnow}
		var got laneVotes
		gotOp, gotKnown := p.vote(tally, differ, &got)
		check("protocol vote", gotOp, gotKnown, got)
		hit := baseRep == obsRep && bits.OnesCount64(differ) <= tallyMaxRows(n)
		if h, f := tallyLanes(tally.op, tally.know, n, tally.laneRep); h != tally.healthy || f != tally.faulty {
			t.Fatalf("n=%d: tally counters no longer count its matrix", n)
		}
		wantRep := obsRep
		if hit {
			wantRep = baseRep
		}
		if tally.laneRep != wantRep {
			t.Fatalf("n=%d: after a vote with hit=%v the tally holds lanes %#x, want %#x", n, hit, tally.laneRep, wantRep)
		}
		// The same matrix again always hits, with no differing row.
		if !hit {
			got = laneVotes{}
			gotOp, gotKnown = p.vote(tally, 0, &got)
			check("repeated vote", gotOp, gotKnown, got)
		}
	})
}

// fuzzWords hands out the fuzzer's bytes as 64-bit words, zero once they
// run out.
type fuzzWords []byte

func (d *fuzzWords) next() uint64 {
	var w uint64
	for i := 0; i < 8 && len(*d) > 0; i++ {
		w |= uint64((*d)[0]) << uint(8*i)
		*d = (*d)[1:]
	}
	return w
}

// snapshotObserver is a warm gang of node id at job position l whose next
// step reads the presence bits set held over from its previous read and
// sends the own syndrome own; its held rows are rows, the snapshot of the
// round it steps next.
func snapshotObserver(t *testing.T, n, lanes, id, l int, set uint64, own BitSyndrome, rows []BitSyndrome) *BatchProtocol {
	t.Helper()
	p, err := NewBatchProtocol(Config{
		N: n, ID: id, L: l, SendCurrRound: l < id,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8},
	}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	p.steps = p.lag
	rd := &p.pbufs[p.steps&1]
	rd.set = set & p.allB
	copy(rd.rows, rows)
	p.lastSentB, p.prevSentB = own, own
	return p
}

// FuzzSparseInstall checks the sparse install against the full one: the
// observers of a gang round share one round of aligned rows, a tallying
// observer votes first, and a second observer — at its own job
// position, with its presence bits perturbed as ignored, collided-own and
// blinded senders do, and with its own corrupted own row — installs only
// the rows the tally's stamp leaves as candidates and corrects the tally.
// Both must give exactly the output of a twin that copies its rows, with
// no tally: a full install and a full vote. A second round with a new
// snapshot re-bases the tally. Before that round the second observer's
// filled rows must equal the rows its twin copied. The seeds double as a
// regular seeded corpus in CI.
func FuzzSparseInstall(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint16(0x0312), uint64(0), []byte("four nodes, sixteen lanes, observer three after observer one"))
	f.Add(uint8(0), uint8(3), uint16(0x0241), uint64(1<<2|1<<9), []byte{0xff, 0x0f, 0x03, 0x0c, 0x00, 0x00, 0x05, 0x0a, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99})
	f.Add(uint8(1), uint8(4), uint16(0x7a5c), uint64(1<<3|1<<20), []byte("sixteen nodes: one blinded sender in lane one"))
	f.Add(uint8(1), uint8(1), uint16(0xfedc), uint64(0xf0f0), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(2), uint8(1), uint16(0x2a05), uint64(1<<40), []byte("a loud round at N=64: malicious senders and one ignored sender"))
	f.Add(uint8(2), uint8(1), uint16(0x0100), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, nSel, lanesRaw uint8, pos uint16, perturb uint64, data []byte) {
		n := []int{4, 16, 64}[int(nSel)%3]
		lanes := int(lanesRaw)%BatchLanes(n) + 1
		d := fuzzWords(data)
		ida, idb := int(pos&0xf)%n+1, int(pos>>4&0xf)%n+1
		if idb == ida {
			idb = ida%n + 1
		}
		la, lb := int(pos>>8&0xf)%n, int(pos>>12)%n
		snaps := make([][]BitSyndrome, 3)
		for k := range snaps {
			snaps[k] = make([]BitSyndrome, n+1)
			for j := 1; j <= n; j++ {
				snaps[k][j] = BitSyndrome{Op: d.next(), Known: ^d.next()}
			}
		}
		// Both reads of the tallying observer see the same senders; the
		// second observer misses the senders of perturb's bits, before and
		// after its read point, as ignored, collided-own and blinded
		// senders are missed.
		present := ^d.next()
		held := present
		ownA := BitSyndrome{Op: ^d.next(), Known: ^uint64(0)}
		ownB := BitSyndrome{Op: d.next(), Known: ^d.next()}
		presentB, heldB := present&^perturb, held&^(perturb>>1)

		a := snapshotObserver(t, n, lanes, ida, la, held, ownA, snaps[0])
		b := snapshotObserver(t, n, lanes, idb, lb, heldB, ownB, snaps[0])
		a2 := snapshotObserver(t, n, lanes, ida, la, held, ownA, snaps[0])
		b2 := snapshotObserver(t, n, lanes, idb, lb, heldB, ownB, snaps[0])
		sr := NewSharedRound(n)
		// rowsAt is what a copying job at position l reads in round k: the
		// senders before it already sent their round-k word.
		rowsAt := func(k, l int) []BitSyndrome {
			rows := append([]BitSyndrome(nil), snaps[k]...)
			copy(rows[:l+1], snaps[k+1][:l+1])
			return rows
		}
		for k := 0; k < 2; k++ {
			round := a.lag + k
			sr.Start(round, snaps[k], 0, ^uint64(0))
			for _, o := range []struct {
				p, twin *BatchProtocol
				l       int
				present uint64
			}{{a, a2, la, present}, {b, b2, lb, presentB}} {
				in := BatchRoundInput{Round: round, Present: o.present, Validity: BitSyndrome{Op: o.present, Known: ^uint64(0)}, Shared: sr}
				var got, want BatchRoundOutput
				if err := o.p.StepBatchInto(&in, &got); err != nil {
					t.Fatal(err)
				}
				in.Shared, in.Rows = nil, rowsAt(k, o.l)
				if err := o.twin.StepBatchInto(&in, &want); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d lanes=%d round %d node %d (l=%d) after node %d: step with the shared round\n got %+v\nwant %+v",
						n, lanes, k, o.p.cfg.ID, o.l, ida, got, want)
				}
				if h, f := tallyLanes(sr.op, sr.know, n, sr.laneRep); sr.laneRep != 0 && (h != sr.healthy || f != sr.faulty) {
					t.Fatalf("n=%d round %d: tally counters no longer count its matrix", n, k)
				}
			}
			if k == 0 {
				var byRound [2][]BitSyndrome
				byRound[round&1], byRound[(round+1)&1] = snaps[0], snaps[1]
				b.FillBorrowedRows(byRound)
				rd, twin := &b.pbufs[b.steps&1], &b2.pbufs[b2.steps&1]
				for j := 1; j <= n; j++ {
					if rd.rows[j] != twin.rows[j] {
						t.Fatalf("n=%d node %d (l=%d): filled row %d is %+v, the copying twin holds %+v", n, idb, lb, j, rd.rows[j], twin.rows[j])
					}
				}
			}
		}
	})
}

// TestSharedRoundMismatchErrors hands a gang shared rounds it cannot read:
// one for another N, one without the N+1 rows, one started for another
// round and one on a dynamic schedule. Each is an error from StepBatchInto
// that leaves the gang where it was, so the correct round then steps.
func TestSharedRoundMismatchErrors(t *testing.T) {
	p, err := NewBatchProtocol(Config{N: 4, ID: 1, SendCurrRound: true, PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]BitSyndrome, 5)
	for j := range rows {
		rows[j] = BitSyndrome{Op: p.allB, Known: p.allB}
	}
	wide := NewSharedRound(5)
	wide.Start(0, make([]BitSyndrome, 6), 0, ^uint64(0))
	short := NewSharedRound(4)
	short.Start(0, rows[:4], 0, ^uint64(0))
	late := NewSharedRound(4)
	late.Start(1, rows, 0, ^uint64(0))
	var out BatchRoundOutput
	for _, tc := range []struct {
		name string
		sr   *SharedRound
		want string
	}{
		{"another N", wide, "shared round of N=5 with 6 rows, want N=4"},
		{"too few rows", short, "shared round of N=4 with 4 rows, want N=4"},
		{"another round", late, "shared round started for round 1, want 0"},
	} {
		err := p.StepBatchInto(&BatchRoundInput{Round: 0, Present: p.allB, Validity: rows[1], Shared: tc.sr}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: StepBatchInto error %v, want %q", tc.name, err, tc.want)
		}
	}
	ok := NewSharedRound(4)
	ok.Start(0, rows, 0, ^uint64(0))
	if err := p.StepBatchInto(&BatchRoundInput{Round: 0, Present: p.allB, Validity: rows[1], Shared: ok}, &out); err != nil {
		t.Fatalf("the round's own shared round: %v", err)
	}
	dyn, err := NewBatchProtocol(Config{N: 4, ID: 1, Dynamic: true, SendCurrRound: true, PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 8}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.StepBatchInto(&BatchRoundInput{Round: 0, Present: dyn.allB, Validity: rows[1], Shared: ok}, &out); err == nil || !strings.Contains(err.Error(), "static schedule") {
		t.Errorf("dynamic schedule: StepBatchInto error %v, want a static-schedule error", err)
	}
}
