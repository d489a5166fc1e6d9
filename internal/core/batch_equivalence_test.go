package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"testing"

	"ttdiag/internal/metrics"
	"ttdiag/internal/rng"
	"ttdiag/internal/trace"
)

// batchEquivCase is one gang configuration of the lane-packed differential
// test.
type batchEquivCase struct {
	name string
	cfg  Config
}

func batchEquivCases() []batchEquivCase {
	var cases []batchEquivCase
	for _, n := range []int{2, 4, 7, 8, 16, 33, 64} {
		id := 1 + n/2
		cases = append(cases,
			batchEquivCase{
				name: fmt.Sprintf("diag_n%d", n),
				cfg: Config{
					// L >= ID: the job runs after the node's slot.
					N: n, ID: n / 2, L: n / 2, SendCurrRound: false,
					Mode: ModeDiagnostic,
					PR:   PRConfig{PenaltyThreshold: 2, RewardThreshold: 3},
				},
			},
			batchEquivCase{
				name: fmt.Sprintf("allcurr_n%d", n),
				cfg: Config{
					N: n, ID: id, L: id - 1, SendCurrRound: true, AllSendCurrRound: true,
					Mode: ModeDiagnostic, StartRound: 5,
					PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 2, ReintegrationThreshold: 4},
				},
			},
			batchEquivCase{
				name: fmt.Sprintf("dynamic_n%d", n),
				cfg: Config{
					N: n, ID: id, Dynamic: true, SendCurrRound: true,
					Mode: ModeDiagnostic,
					PR:   PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 3},
				},
			},
		)
	}
	return cases
}

// batchMembershipCases are the membership-mode (Sec. 7) gang
// configurations: one job position before the node's slot under
// AllSendCurrRound and one after it, so both send alignments carry the
// accusations.
func batchMembershipCases() []batchEquivCase {
	var cases []batchEquivCase
	for _, n := range []int{2, 4, 7, 8, 16, 33, 64} {
		id := 1 + n/2
		cases = append(cases,
			batchEquivCase{
				name: fmt.Sprintf("membership_n%d", n),
				cfg: Config{
					N: n, ID: id, L: id - 1, SendCurrRound: true, AllSendCurrRound: true,
					Mode: ModeMembership, StartRound: 5,
					PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 2, ReintegrationThreshold: 4},
				},
			},
			batchEquivCase{
				name: fmt.Sprintf("membership_late_n%d", n),
				cfg: Config{
					N: n, ID: n / 2, L: n / 2, SendCurrRound: false,
					Mode: ModeMembership,
					PR:   PRConfig{PenaltyThreshold: 3, RewardThreshold: 3},
				},
			},
		)
	}
	return cases
}

// membershipPackedInput draws one per-run round input for the membership
// cases: mostly agreeing healthy rows, occasional silence, one malicious
// sender whose row holds random opinions (it disagrees with the health
// vector and draws accusations), and rounds in which every other row
// convicts node id, so that node sees itself convicted.
func membershipPackedInput(st *rng.Stream, n, id, round int, collision CollisionFn) PackedRoundInput {
	in := PackedRoundInput{
		Round:     round,
		Rows:      make([]BitSyndrome, n+1),
		Validity:  bitSyndromeAllHealthy(n),
		Collision: collision,
	}
	malicious := id%n + 1
	convict := st.Bool(0.08)
	for j := 1; j <= n; j++ {
		switch {
		case st.Bool(0.1): // ε: nothing received
			in.Validity.Set(j, Faulty)
			continue
		case j == malicious && st.Bool(0.5):
			in.Rows[j] = packSyndrome(randomSyndrome(st, n, 0.4))
		default:
			in.Rows[j] = bitSyndromeAllHealthy(n)
			if convict && j != id {
				in.Rows[j].Set(id, Faulty)
			}
		}
		in.Present |= 1 << uint(j-1)
	}
	return in
}

// batchGangWidths picks the gang widths to exercise for an n-node system:
// a single lane, the full word, and a ragged width in between when one
// exists.
func batchGangWidths(n int) []int {
	max := BatchLanes(n)
	widths := []int{1}
	if mid := max/2 + 1; mid > 1 && mid < max {
		widths = append(widths, mid)
	}
	if max > 1 {
		widths = append(widths, max)
	}
	return widths
}

// randomPackedInput draws one per-run round input in packed form, covering
// the same observation space as randomStepInput: ε variables, out-of-spec
// validity entries, random opinions with erased cells.
func randomPackedInput(st *rng.Stream, n, round int, collision CollisionFn) PackedRoundInput {
	in := PackedRoundInput{
		Round:     round,
		Rows:      make([]BitSyndrome, n+1),
		Validity:  bitSyndromeAllHealthy(n),
		Collision: collision,
	}
	for j := 1; j <= n; j++ {
		switch {
		case st.Bool(0.15): // ε: nothing received
			in.Validity.Set(j, Faulty)
		case st.Bool(0.05): // stressing an out-of-spec validity entry
			in.Validity.Set(j, Erased)
			in.Rows[j] = packSyndrome(randomSyndrome(st, n, 0.2))
			in.Present |= 1 << uint(j-1)
		default:
			in.Rows[j] = packSyndrome(randomSyndrome(st, n, 0.2))
			in.Present |= 1 << uint(j-1)
		}
	}
	return in
}

// packGangInput folds per-lane packed inputs into one lane-packed gang
// input. collisionFaulty bit r carries lane r's collision verdict.
func packGangInput(n, round int, laneIns []PackedRoundInput, collisionFaulty uint64) BatchRoundInput {
	gang := BatchRoundInput{
		Round:           round,
		Rows:            make([]BitSyndrome, n+1),
		CollisionFaulty: collisionFaulty,
	}
	for lane, in := range laneIns {
		shift := uint(lane * n)
		gang.Present |= in.Present << shift
		gang.Validity.Op |= in.Validity.Op << shift
		gang.Validity.Known |= in.Validity.Known << shift
		for j := 1; j <= n; j++ {
			gang.Rows[j].Op |= in.Rows[j].Op << shift
			gang.Rows[j].Known |= in.Rows[j].Known << shift
		}
	}
	return gang
}

func intsToMask(xs []int) uint64 {
	var m uint64
	for _, j := range xs {
		m |= 1 << uint(j-1)
	}
	return m
}

// TestBatchStepEquivalence runs G per-run packed protocols and one gang
// BatchProtocol side by side on identical per-lane random inputs — ε rows,
// erased entries, per-lane collision verdicts, mixed isolation states across
// lanes — at every exercised gang width (single lane, ragged, full word),
// and requires lane-exact agreement on every output field, every per-lane
// metric value, and byte-identical per-lane snapshot JSON on every round.
// The membership cases add a malicious row and self-convictions, so the
// accusation TTL and skew-guard registers differ across lanes; their
// accusations and evidence classes must match each lane's per-run twin.
func TestBatchStepEquivalence(t *testing.T) {
	for _, tc := range batchEquivCases() {
		for _, lanes := range batchGangWidths(tc.cfg.N) {
			t.Run(fmt.Sprintf("%s_g%d", tc.name, lanes), func(t *testing.T) {
				runBatchEquivalence(t, tc.cfg, lanes, func(st *rng.Stream, round int, collision CollisionFn) PackedRoundInput {
					return randomPackedInput(st, tc.cfg.N, round, collision)
				})
			})
		}
	}
	for _, tc := range batchMembershipCases() {
		for _, lanes := range batchGangWidths(tc.cfg.N) {
			t.Run(fmt.Sprintf("%s_g%d", tc.name, lanes), func(t *testing.T) {
				runBatchEquivalence(t, tc.cfg, lanes, func(st *rng.Stream, round int, collision CollisionFn) PackedRoundInput {
					return membershipPackedInput(st, tc.cfg.N, tc.cfg.ID, round, collision)
				})
			})
		}
	}
}

// runBatchEquivalence is the body of TestBatchStepEquivalence for one gang
// configuration and width; draw produces one lane's round input.
func runBatchEquivalence(t *testing.T, cfg Config, lanes int, draw func(st *rng.Stream, round int, collision CollisionFn) PackedRoundInput) {
	const rounds = 48
	n := cfg.N
	membership := cfg.Mode == ModeMembership
	gang, err := NewBatchProtocol(cfg, lanes)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	refs := make([]*Protocol, lanes)
	refRegs := make([]*metrics.Registry, lanes)
	laneRegs := make([]*metrics.Registry, lanes)
	recs := make([]trace.Recorder, lanes)
	for r := range refs {
		if refs[r], err = NewProtocol(cfg); err != nil {
			t.Fatalf("ref lane %d: %v", r, err)
		}
		refRegs[r] = metrics.New()
		laneRegs[r] = metrics.New()
		refs[r].SetMetrics(NewStepMetrics(refRegs[r]))
		gang.SetLaneMetrics(r, NewStepMetrics(laneRegs[r]))
		if membership {
			refs[r].SetTrace(NewStepTrace(&recs[r]))
		}
	}
	streams := make([]*rng.Stream, lanes)
	for r := range streams {
		streams[r] = rng.NewStream(int64(9000 + 100*n + 10*lanes + r))
	}
	laneIns := make([]PackedRoundInput, lanes)
	sendBuf := make([]byte, EncodedLen(n))
	refSendBuf := make([]byte, EncodedLen(n))
	accusations, convictions := 0, 0
	for step := 0; step < rounds; step++ {
		round := cfg.StartRound + step
		var collisionFaulty uint64
		for r := range laneIns {
			lane := r
			verdictFaulty := (round+lane)%5 == 0
			if verdictFaulty {
				collisionFaulty |= 1 << uint(lane)
			}
			laneIns[r] = draw(streams[r], round, func(int) Opinion {
				if verdictFaulty {
					return Faulty
				}
				return Healthy
			})
		}
		gOut, gErr := gang.StepBatch(packGangInput(n, round, laneIns, collisionFaulty))
		if gErr != nil {
			t.Fatalf("round %d: StepBatch: %v", round, gErr)
		}
		for r := range refs {
			tag := fmt.Sprintf("round %d lane %d", round, r)
			recs[r].Reset()
			out, err := refs[r].StepPacked(laneIns[r])
			if err != nil {
				t.Fatalf("%s: StepPacked: %v", tag, err)
			}
			if gOut.Round != out.Round || gOut.DiagnosedRound != out.DiagnosedRound {
				t.Fatalf("%s: round fields diverged: batch %d/%d, ref %d/%d",
					tag, gOut.Round, gOut.DiagnosedRound, out.Round, out.DiagnosedRound)
			}
			if gOut.Warm != (out.ConsHV.Known != 0) {
				t.Fatalf("%s: warm %v, ref ConsHV %+v", tag, gOut.Warm, out.ConsHV)
			}
			if hv := gOut.LaneConsHV(r, n); hv != out.ConsHV {
				t.Fatalf("%s: ConsHV diverged: batch %+v, ref %+v", tag, hv, out.ConsHV)
			}
			laneSend := gOut.LaneSend(r, n)
			if laneSend != out.Send {
				t.Fatalf("%s: Send diverged: batch %+v, ref %+v", tag, laneSend, out.Send)
			}
			laneSend.EncodeInto(sendBuf)
			out.Send.EncodeInto(refSendBuf)
			if !bytes.Equal(sendBuf, refSendBuf) {
				t.Fatalf("%s: wire bytes diverged: batch %x, ref %x", tag, sendBuf, refSendBuf)
			}
			if got, want := gOut.LaneActiveMask(r, n), out.Active; got != want {
				t.Fatalf("%s: Active diverged: batch %#x, ref %#x", tag, got, want)
			}
			if got, want := gOut.LaneIsolated(r, n), out.Isolated; got != want {
				t.Fatalf("%s: Isolated diverged: batch %#x, ref %#x", tag, got, want)
			}
			if got, want := gOut.LaneReintegrated(r, n), out.Reintegrated; got != want {
				t.Fatalf("%s: Reintegrated diverged: batch %#x, ref %#x", tag, got, want)
			}
			if got, want := laneExtract(gOut.AccusedMask, r, n), out.Accused; got != want {
				t.Fatalf("%s: Accused diverged: batch %#x, ref %#x", tag, got, want)
			}
			var wantDefinite uint64
			for _, e := range recs[r].Filter(trace.KindAccusation) {
				if e.Evidence == trace.EvidenceVerdict {
					wantDefinite |= 1 << uint(e.Subject-1)
				}
			}
			if got := laneExtract(gOut.DefiniteMask, r, n); got != wantDefinite {
				t.Fatalf("%s: definite evidence diverged: batch %#x, ref %#x", tag, got, wantDefinite)
			}
			accusations += bits.OnesCount64(out.Accused)
			if out.ConsHV.Get(cfg.ID) == Faulty {
				convictions++
			}
			gSnap, err := gang.SnapshotLane(r)
			if err != nil {
				t.Fatalf("%s: SnapshotLane: %v", tag, err)
			}
			refSnap, err := refs[r].Snapshot()
			if err != nil {
				t.Fatalf("%s: ref snapshot: %v", tag, err)
			}
			if !bytes.Equal(gSnap, refSnap) {
				t.Fatalf("%s: snapshot JSON diverged:\nbatch %s\nref   %s", tag, gSnap, refSnap)
			}
		}
	}
	// In a two-node system a row can only be accused on the observer's own
	// column, which every self-conviction guards for accusationSkew rounds,
	// so accusations may legitimately stay absent there.
	if membership && (accusations == 0 && n > 2 || convictions == 0) {
		t.Fatalf("membership inputs raised %d accusations and %d self-convictions; both must occur", accusations, convictions)
	}
	for r := range refs {
		got, err := json.Marshal(laneRegs[r].Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(refRegs[r].Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lane %d: metric snapshots diverged:\nbatch %s\nref   %s", r, got, want)
		}
	}
}

// TestBatchSharedMetricsEquivalence pins the campaign-shaped telemetry
// attachment: every lane of the gang shares one StepMetrics, and lane 0
// carries a copy of it that also records the penalty trajectories. The
// gang's registry must hold exactly the merge of G per-run StepPacked
// protocols' registries — counters summed, gauges maximised, lane 0's series
// point for point — at full and ragged widths, on inputs with frequent
// silence (⊥ columns) and random opinions (exact ties). The last lane is
// detached halfway, the way a lane that reached its horizon is.
func TestBatchSharedMetricsEquivalence(t *testing.T) {
	const rounds = 64
	for _, n := range []int{4, 8} {
		max := BatchLanes(n)
		for _, lanes := range []int{max, max/2 + 1} {
			t.Run(fmt.Sprintf("n%d_g%d", n, lanes), func(t *testing.T) {
				cfg := Config{
					N: n, ID: 2, L: 2, SendCurrRound: false, Mode: ModeDiagnostic,
					PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 2, ReintegrationThreshold: 4},
				}
				gang, err := NewBatchProtocol(cfg, lanes)
				if err != nil {
					t.Fatal(err)
				}
				gangReg := metrics.New()
				shared := NewStepMetrics(gangReg)
				lane0 := *shared
				lane0.PenaltySeries = make([]*metrics.Series, n+1)
				for j := 1; j <= n; j++ {
					lane0.PenaltySeries[j] = gangReg.Series(fmt.Sprintf("penalty/node%d", j), 2*rounds)
				}
				refs := make([]*Protocol, lanes)
				refRegs := make([]*metrics.Registry, lanes)
				for r := range refs {
					if refs[r], err = NewProtocol(cfg); err != nil {
						t.Fatal(err)
					}
					refRegs[r] = metrics.New()
					sm := NewStepMetrics(refRegs[r])
					if r == 0 {
						sm.PenaltySeries = make([]*metrics.Series, n+1)
						for j := 1; j <= n; j++ {
							sm.PenaltySeries[j] = refRegs[r].Series(fmt.Sprintf("penalty/node%d", j), 2*rounds)
						}
					}
					refs[r].SetMetrics(sm)
					gang.SetLaneMetrics(r, shared)
				}
				gang.SetLaneMetrics(0, &lane0)

				streams := make([]*rng.Stream, lanes)
				for r := range streams {
					streams[r] = rng.NewStream(int64(7100 + 10*n + r))
				}
				laneIns := make([]PackedRoundInput, lanes)
				for step := 0; step < rounds; step++ {
					if step == rounds/2 {
						gang.SetLaneMetrics(lanes-1, nil)
						refs[lanes-1].SetMetrics(nil)
					}
					// Alternate quiet rounds with rounds where most senders
					// are silent, so whole columns go without opinions.
					silent := 0.1
					if step%4 == 3 {
						silent = 0.7
					}
					var collisionFaulty uint64
					for r := range laneIns {
						faultyVerdict := (step+r)%3 == 0
						if faultyVerdict {
							collisionFaulty |= 1 << uint(r)
						}
						in := randomPackedInput(streams[r], n, step, func(int) Opinion {
							if faultyVerdict {
								return Faulty
							}
							return Healthy
						})
						for j := 1; j <= n; j++ {
							if streams[r].Bool(silent) {
								in.Present &^= 1 << uint(j-1)
								in.Validity.Set(j, Faulty)
								in.Rows[j] = BitSyndrome{}
							}
						}
						laneIns[r] = in
					}
					if _, err := gang.StepBatch(packGangInput(n, step, laneIns, collisionFaulty)); err != nil {
						t.Fatalf("round %d: StepBatch: %v", step, err)
					}
					for r := range refs {
						if _, err := refs[r].StepPacked(laneIns[r]); err != nil {
							t.Fatalf("round %d lane %d: StepPacked: %v", step, r, err)
						}
					}
				}
				var want metrics.Snapshot
				for r := range refRegs {
					if want, err = metrics.Merge(want, refRegs[r].Snapshot()); err != nil {
						t.Fatal(err)
					}
				}
				for _, name := range []string{"vote/bottom", "vote/tied", "vote/faulty", "matrix/disagreements", "pr/isolations", "pr/reintegrations"} {
					if want.Counters[name] == 0 {
						t.Fatalf("inputs never exercised %s: %v", name, want.Counters)
					}
				}
				gotJSON, err := json.Marshal(gangReg.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("shared-instrument snapshot diverged:\nbatch %s\nref   %s", gotJSON, wantJSON)
				}
			})
		}
	}
}

// TestBatchProtocolReset pins that Reset rewinds the gang to a freshly
// constructed state at any (including ragged) width: a reset gang must
// reproduce a fresh gang's outputs bit for bit.
func TestBatchProtocolReset(t *testing.T) {
	cfg := Config{N: 4, ID: 2, L: 0, SendCurrRound: true,
		Mode: ModeDiagnostic, PR: PRConfig{PenaltyThreshold: 2, RewardThreshold: 2}}
	reused, err := NewBatchProtocol(cfg, BatchLanes(4))
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *BatchProtocol, lanes int, seed int64) []BatchRoundOutput {
		st := rng.NewStream(seed)
		outs := make([]BatchRoundOutput, 0, 12)
		laneIns := make([]PackedRoundInput, lanes)
		for round := 0; round < 12; round++ {
			for r := range laneIns {
				laneIns[r] = randomPackedInput(st, 4, round, nil)
			}
			out, err := p.StepBatch(packGangInput(4, round, laneIns, 0))
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	for trial, lanes := range []int{16, 3, 16, 1} {
		seed := int64(400 + trial)
		reused.Reset(lanes)
		got := run(reused, lanes, seed)
		fresh, err := NewBatchProtocol(cfg, lanes)
		if err != nil {
			t.Fatal(err)
		}
		want := run(fresh, lanes, seed)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lanes=%d round %d: reused %+v, fresh %+v", lanes, i, got[i], want[i])
			}
		}
	}
}

// TestBatchProtocolBounds pins the constructor's domain: either mode,
// 1..⌊64/N⌋ lanes, packed-eligible widths.
func TestBatchProtocolBounds(t *testing.T) {
	diag := Config{N: 4, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}}
	if _, err := NewBatchProtocol(diag, 17); err == nil {
		t.Fatal("17 lanes of an N=4 system must not fit")
	}
	if _, err := NewBatchProtocol(diag, 0); err == nil {
		t.Fatal("0 lanes must be rejected")
	}
	mem := diag
	mem.Mode = ModeMembership
	if _, err := NewBatchProtocol(mem, 16); err != nil {
		t.Fatalf("membership mode must be accepted: %v", err)
	}
	// Reset may shrink a gang but not grow it past the lane capacity the
	// counters were allocated for.
	narrow, err := NewBatchProtocol(diag, 2)
	if err != nil {
		t.Fatal(err)
	}
	narrow.Reset(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset beyond the lane capacity must panic")
			}
		}()
		narrow.Reset(3)
	}()
	wide := Config{N: MaxPackedN + 1, ID: 1, L: 0, SendCurrRound: true,
		PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}}
	if _, err := NewBatchProtocol(wide, 1); err == nil {
		t.Fatalf("N=%d must be rejected", wide.N)
	}
	if got := BatchLanes(4); got != 16 {
		t.Fatalf("BatchLanes(4) = %d, want 16", got)
	}
	if got := BatchLanes(64); got != 1 {
		t.Fatalf("BatchLanes(64) = %d, want 1", got)
	}
	if got := BatchLanes(65); got != 0 {
		t.Fatalf("BatchLanes(65) = %d, want 0", got)
	}
}

// FuzzVoteAllBatch is the gang form of FuzzVoteAll: arbitrary row planes for
// an arbitrary gang (random width, ragged, mixed per-lane content) must vote
// lane-for-lane identically to the per-run word-parallel kernel. The seeds
// double as a regular seeded corpus in CI.
func FuzzVoteAllBatch(f *testing.F) {
	f.Add(uint8(4), uint8(16), []byte{0xff, 0x0f, 0x03, 0x0c, 0x00, 0x00, 0x05, 0x0a})
	f.Add(uint8(4), uint8(3), []byte{0xaa, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc})
	f.Add(uint8(8), uint8(8), []byte{0xde, 0xf0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66})
	f.Add(uint8(64), uint8(1), []byte{})
	f.Add(uint8(7), uint8(2), []byte{0x01, 0x80, 0x42, 0x24, 0x18, 0x81, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, nRaw, lanesRaw uint8, data []byte) {
		n := int(nRaw)%MaxPackedN + 1
		maxLanes := BatchLanes(n)
		lanes := int(lanesRaw)%maxLanes + 1
		laneAll := PlaneMask(n)
		var laneRep uint64
		for r := 0; r < lanes; r++ {
			laneRep |= 1 << uint(r*n)
		}
		allB := laneRep * laneAll
		op := make([]uint64, n+1)
		know := make([]uint64, n+1)
		// Consume 16 bytes per gang row (op word, know word); rows beyond
		// the data stay ε in every lane.
		src := data
		for j := 1; j <= n && len(src) >= 16; j++ {
			var o, k uint64
			for i := 0; i < 8; i++ {
				o |= uint64(src[i]) << uint(8*i)
				k |= uint64(src[8+i]) << uint(8*i)
			}
			src = src[16:]
			op[j] = o & k & allB
			know[j] = k & allB
		}
		var votes laneVotes
		consOp, consKnown := voteAllLanes(op, know, n, laneRep, &votes)
		if noVotesOp, noVotesKnown := voteAllLanes(op, know, n, laneRep, nil); noVotesOp != consOp || noVotesKnown != consKnown {
			t.Fatalf("n=%d lanes=%d: the classification changed the verdict", n, lanes)
		}
		if consOp&^consKnown != 0 || consKnown&^allB != 0 {
			t.Fatalf("n=%d lanes=%d: malformed gang verdict op=%#x known=%#x", n, lanes, consOp, consKnown)
		}
		for lane := 0; lane < lanes; lane++ {
			ref, err := NewPackedMatrix(n)
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j <= n; j++ {
				rowKnow := laneExtract(know[j], lane, n)
				if rowKnow == 0 {
					continue // ε row: a zero know segment encodes absence
				}
				if err := ref.SetBitRow(j, BitSyndrome{Op: laneExtract(op[j], lane, n), Known: rowKnow}); err != nil {
					t.Fatal(err)
				}
			}
			want, err := ref.VoteAll()
			if err != nil {
				t.Fatal(err)
			}
			got := BitSyndrome{Op: laneExtract(consOp, lane, n), Known: laneExtract(consKnown, lane, n)}
			if got != want {
				t.Fatalf("n=%d lanes=%d lane %d: gang vote %+v, per-run %+v", n, lanes, lane, got, want)
			}
			for j := 1; j <= n; j++ {
				faulty, healthy := ref.Tally(j)
				bit := uint64(1) << uint(lane*n+j-1)
				if gotAny, wantAny := votes.any&bit != 0, faulty+healthy > 0; gotAny != wantAny {
					t.Fatalf("n=%d lanes=%d lane %d column %d: any %v, tally %d/%d", n, lanes, lane, j, gotAny, faulty, healthy)
				}
				if gotFaulty, wantFaulty := votes.faulty&bit != 0, faulty > healthy; gotFaulty != wantFaulty {
					t.Fatalf("n=%d lanes=%d lane %d column %d: faulty %v, tally %d/%d", n, lanes, lane, j, gotFaulty, faulty, healthy)
				}
				if gotTied, wantTied := votes.tied&bit != 0, faulty == healthy && faulty > 0; gotTied != wantTied {
					t.Fatalf("n=%d lanes=%d lane %d column %d: tied %v, tally %d/%d", n, lanes, lane, j, gotTied, faulty, healthy)
				}
			}
		}
	})
}
