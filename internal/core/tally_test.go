package core

import (
	"math/bits"
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

// laneReplicator returns the lane replicator of a gang of `lanes` n-node
// lanes.
func laneReplicator(n, lanes int) uint64 {
	var rep uint64
	for r := 0; r < lanes; r++ {
		rep |= 1 << uint(r*n)
	}
	return rep
}

// FuzzVoteTally checks the votes taken from a VoteTally against the full
// vote: a gang base matrix is tallied, and an observer matrix — the base
// with the rows of a mask replaced, in a gang of the same or another width —
// is voted once through the forced correction (same width only) and once
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

		tally := NewVoteTally(n)
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
