package core

import (
	"math/bits"
	"testing"
	"testing/quick"

	"ttdiag/internal/rng"
)

func prMust(t *testing.T, n int, cfg PRConfig) *PenaltyReward {
	t.Helper()
	pr, err := NewPenaltyReward(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func hv(n int, faulty ...int) Syndrome {
	s := NewSyndrome(n, Healthy)
	for _, j := range faulty {
		s[j] = Faulty
	}
	return s
}

func TestPRConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     PRConfig
		wantErr bool
	}{
		{name: "ok_minimal", cfg: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}},
		{name: "negative_P", cfg: PRConfig{PenaltyThreshold: -1, RewardThreshold: 1}, wantErr: true},
		{name: "zero_R", cfg: PRConfig{PenaltyThreshold: 1, RewardThreshold: 0}, wantErr: true},
		{name: "negative_reint", cfg: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1, ReintegrationThreshold: -1}, wantErr: true},
		{name: "short_criticalities", cfg: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1, Criticalities: []int64{0, 1}}, wantErr: true},
		{name: "zero_criticality", cfg: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1, Criticalities: []int64{0, 1, 0, 1, 1}}, wantErr: true},
		{name: "ok_criticalities", cfg: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1, Criticalities: []int64{0, 40, 6, 1, 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate(4)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate: err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestPenaltyAccumulationAndIsolation(t *testing.T) {
	// P = 3: the fourth consecutive faulty round isolates (penalty must
	// exceed, not reach, the threshold).
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 3, RewardThreshold: 10})
	for round := 0; round < 3; round++ {
		iso, _, err := pr.Update(hv(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		if len(iso) != 0 {
			t.Fatalf("round %d: early isolation %v", round, iso)
		}
	}
	if got := pr.Penalty(2); got != 3 {
		t.Fatalf("penalty = %d, want 3", got)
	}
	iso, _, err := pr.Update(hv(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(iso) != 1 || iso[0] != 2 {
		t.Fatalf("isolated = %v, want [2]", iso)
	}
	if pr.IsActive(2) {
		t.Fatal("node 2 still active")
	}
	for _, j := range []int{1, 3, 4} {
		if !pr.IsActive(j) {
			t.Fatalf("node %d wrongly isolated", j)
		}
	}
}

func TestCriticalityScalesPenalty(t *testing.T) {
	// Automotive Table 2 settings: P=197, SC criticality 40 -> isolation at
	// the 5th faulty round (5*40=200 > 197).
	pr := prMust(t, 4, PRConfig{
		PenaltyThreshold: 197,
		RewardThreshold:  1 << 20,
		Criticalities:    []int64{0, 40, 6, 1, 1},
	})
	rounds := 0
	for pr.IsActive(1) {
		if _, _, err := pr.Update(hv(4, 1)); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if rounds != 5 {
		t.Fatalf("SC node isolated after %d faulty rounds, want 5", rounds)
	}
	// NSR node (criticality 1) takes 198 rounds.
	pr2 := prMust(t, 4, PRConfig{
		PenaltyThreshold: 197,
		RewardThreshold:  1 << 20,
		Criticalities:    []int64{0, 40, 6, 1, 1},
	})
	rounds = 0
	for pr2.IsActive(3) {
		if _, _, err := pr2.Update(hv(4, 3)); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if rounds != 198 {
		t.Fatalf("NSR node isolated after %d faulty rounds, want 198", rounds)
	}
}

func TestRewardResetsMemory(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 5, RewardThreshold: 3})
	// Two faults, then three clean rounds: counters reset.
	for i := 0; i < 2; i++ {
		if _, _, err := pr.Update(hv(4, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if pr.Penalty(1) != 2 {
		t.Fatalf("penalty = %d", pr.Penalty(1))
	}
	for i := 0; i < 3; i++ {
		if _, _, err := pr.Update(hv(4)); err != nil {
			t.Fatal(err)
		}
	}
	if pr.Penalty(1) != 0 || pr.Reward(1) != 0 {
		t.Fatalf("counters not reset: p=%d r=%d", pr.Penalty(1), pr.Reward(1))
	}
}

func TestRewardZeroedByNewFault(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 100, RewardThreshold: 5})
	if _, _, err := pr.Update(hv(4, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := pr.Update(hv(4)); err != nil {
			t.Fatal(err)
		}
	}
	if pr.Reward(1) != 3 {
		t.Fatalf("reward = %d, want 3", pr.Reward(1))
	}
	if _, _, err := pr.Update(hv(4, 1)); err != nil {
		t.Fatal(err)
	}
	if pr.Reward(1) != 0 {
		t.Fatalf("reward = %d after new fault, want 0", pr.Reward(1))
	}
	if pr.Penalty(1) != 2 {
		t.Fatalf("penalty = %d, want 2 (faults within R are correlated)", pr.Penalty(1))
	}
}

func TestRewardOnlyCountsWithPendingPenalty(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 5, RewardThreshold: 3})
	for i := 0; i < 10; i++ {
		if _, _, err := pr.Update(hv(4)); err != nil {
			t.Fatal(err)
		}
	}
	if pr.Reward(1) != 0 {
		t.Fatalf("reward = %d for a never-faulty node, want 0", pr.Reward(1))
	}
}

func TestIsolationIsSticky(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 0, RewardThreshold: 2})
	if _, _, err := pr.Update(hv(4, 3)); err != nil {
		t.Fatal(err)
	}
	if pr.IsActive(3) {
		t.Fatal("node not isolated with P=0")
	}
	// Healthy rounds do not reintegrate without the extension.
	for i := 0; i < 100; i++ {
		if _, _, err := pr.Update(hv(4)); err != nil {
			t.Fatal(err)
		}
	}
	if pr.IsActive(3) {
		t.Fatal("node reintegrated without the extension enabled")
	}
}

func TestReintegrationExtension(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 0, RewardThreshold: 2, ReintegrationThreshold: 4})
	if _, _, err := pr.Update(hv(4, 3)); err != nil {
		t.Fatal(err)
	}
	if pr.IsActive(3) {
		t.Fatal("node not isolated")
	}
	// A fault during observation resets the observation counter.
	for i := 0; i < 3; i++ {
		if _, _, err := pr.Update(hv(4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := pr.Update(hv(4, 3)); err != nil {
		t.Fatal(err)
	}
	var reint []int
	for i := 0; i < 4; i++ {
		if pr.IsActive(3) {
			t.Fatalf("reintegrated after only %d clean rounds", i)
		}
		var err error
		_, reint, err = pr.Update(hv(4))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !pr.IsActive(3) {
		t.Fatal("node not reintegrated after threshold clean rounds")
	}
	if len(reint) != 1 || reint[0] != 3 {
		t.Fatalf("reintegrated = %v, want [3]", reint)
	}
	if pr.Penalty(3) != 0 || pr.Reward(3) != 0 {
		t.Fatal("counters not reset on reintegration")
	}
}

func TestUpdateSizeMismatch(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 1, RewardThreshold: 1})
	if _, _, err := pr.Update(NewSyndrome(5, Healthy)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestAccessorsOutOfRange(t *testing.T) {
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 1, RewardThreshold: 1})
	if pr.IsActive(0) || pr.IsActive(5) {
		t.Error("out-of-range node reported active")
	}
	if pr.Penalty(0) != 0 || pr.Reward(99) != 0 {
		t.Error("out-of-range counters non-zero")
	}
}

func TestNewPenaltyRewardValidation(t *testing.T) {
	if _, err := NewPenaltyReward(0, PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewPenaltyReward(4, PRConfig{PenaltyThreshold: -1, RewardThreshold: 1}); err == nil {
		t.Error("invalid config accepted")
	}
}

// Property: penalty counters are exceeded (isolation) after exactly
// ceil((P+1)/s) faulty rounds under continuous faults, matching the Sec. 9
// tuning rule s_i = ceil(P/p_i).
func TestIsolationRoundProperty(t *testing.T) {
	if err := quick.Check(func(pRaw uint16, sRaw uint8) bool {
		p := int64(pRaw%1000) + 1
		s := int64(sRaw%50) + 1
		pr, err := NewPenaltyReward(2, PRConfig{
			PenaltyThreshold: p,
			RewardThreshold:  10,
			Criticalities:    []int64{0, s, 1},
		})
		if err != nil {
			return false
		}
		rounds := int64(0)
		for pr.IsActive(1) {
			if _, _, err := pr.Update(hv(2, 1)); err != nil {
				return false
			}
			rounds++
		}
		want := (p + s) / s // ceil((P+1)/s)
		return rounds == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: counters never go negative and rewards never exceed R.
func TestCounterInvariants(t *testing.T) {
	st := rng.NewStream(3)
	pr := prMust(t, 4, PRConfig{PenaltyThreshold: 20, RewardThreshold: 7})
	for i := 0; i < 5000; i++ {
		v := NewSyndrome(4, Healthy)
		for j := 1; j <= 4; j++ {
			if st.Bool(0.3) {
				v[j] = Faulty
			}
		}
		if _, _, err := pr.Update(v); err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= 4; j++ {
			if pr.Penalty(j) < 0 || pr.Reward(j) < 0 {
				t.Fatalf("negative counter for node %d", j)
			}
			if pr.Reward(j) >= 7 {
				t.Fatalf("reward %d not reset at threshold", pr.Reward(j))
			}
			if pr.IsActive(j) && pr.Penalty(j) > 20 {
				t.Fatalf("active node %d with penalty %d beyond threshold", j, pr.Penalty(j))
			}
		}
	}
}

// eagerPR is Alg. 2 swept eagerly, the oracle of PenaltyReward's event
// form: every masked update visits the faulty columns and the whole
// attention set and moves each counter one step, as the algorithm reads.
// Lane r's counter of node j lives at index r·(n+1)+j, the masks are
// lane-packed, like PenaltyReward's.
type eagerPR struct {
	cfg                   PRConfig
	n, lanes              int
	pen, rew, obs         []int64
	active                []bool
	activeMask, attention uint64
}

func newEagerPR(n, capLanes int, cfg PRConfig) *eagerPR {
	w := capLanes * (n + 1)
	e := &eagerPR{cfg: cfg, n: n, pen: make([]int64, w), rew: make([]int64, w), obs: make([]int64, w), active: make([]bool, w)}
	e.reset(capLanes)
	return e
}

// reset zeroes every lane of the capacity and makes `lanes` of them live.
func (e *eagerPR) reset(lanes int) {
	e.lanes = lanes
	clear(e.pen)
	clear(e.rew)
	clear(e.obs)
	for i := range e.active {
		e.active[i] = i%(e.n+1) != 0
	}
	e.activeMask = laneReplicator(e.n, lanes) * PlaneMask(e.n)
	e.attention = 0
}

// updateMasked applies one round's lane-packed verdicts (faultyMask marks
// the Faulty columns, every other column is Healthy).
func (e *eagerPR) updateMasked(faultyMask uint64) (isolated, reintegrated uint64) {
	for rem := faultyMask | e.attention; rem != 0; rem &= rem - 1 {
		pos := bits.TrailingZeros64(rem)
		health := Healthy
		if faultyMask&(rem&-rem) != 0 {
			health = Faulty
		}
		iso, reint := e.updateNode(pos, health)
		if iso {
			isolated |= 1 << uint(pos)
		}
		if reint {
			reintegrated |= 1 << uint(pos)
		}
	}
	return isolated, reintegrated
}

// updateNode applies one verdict to the node at lane-packed position pos.
func (e *eagerPR) updateNode(pos int, health Opinion) (isolated, reintegrated bool) {
	i, j := pos+pos/e.n+1, pos%e.n+1
	bit := uint64(1) << uint(pos)
	if !e.active[i] {
		if e.cfg.ReintegrationThreshold > 0 {
			if health == Faulty {
				e.obs[i] = 0
				return false, false
			}
			e.obs[i]++
			if e.obs[i] >= e.cfg.ReintegrationThreshold {
				e.active[i] = true
				e.pen[i], e.rew[i], e.obs[i] = 0, 0, 0
				e.activeMask |= bit
				e.attention &^= bit
				return false, true
			}
		}
		return false, false
	}
	if health == Faulty {
		e.pen[i] += e.cfg.criticality(j)
		e.rew[i] = 0
		if e.pen[i] > e.cfg.PenaltyThreshold {
			e.active[i] = false
			e.obs[i] = 0
			e.activeMask &^= bit
			if e.cfg.ReintegrationThreshold > 0 {
				e.attention |= bit
			} else {
				e.attention &^= bit
			}
			return true, false
		}
		e.attention |= bit
		return false, false
	}
	if e.pen[i] > 0 {
		e.rew[i]++
		if e.rew[i] >= e.cfg.RewardThreshold {
			e.pen[i], e.rew[i] = 0, 0
			e.attention &^= bit
		}
	}
	return false, false
}

// copyLane overwrites lane `to` with lane `from` of src.
func (e *eagerPR) copyLane(to int, src *eagerPR, from int) {
	n := e.n
	dst, s := to*(n+1), from*(n+1)
	copy(e.pen[dst:dst+n+1], src.pen[s:s+n+1])
	copy(e.rew[dst:dst+n+1], src.rew[s:s+n+1])
	copy(e.obs[dst:dst+n+1], src.obs[s:s+n+1])
	copy(e.active[dst:dst+n+1], src.active[s:s+n+1])
	seg := PlaneMask(n)
	e.activeMask = e.activeMask&^(seg<<uint(to*n)) | (src.activeMask>>uint(from*n)&seg)<<uint(to*n)
	e.attention = e.attention&^(seg<<uint(to*n)) | (src.attention>>uint(from*n)&seg)<<uint(to*n)
}

// comparePR fails unless lane `lane` of pr holds the counters, activity and
// attention of lane `want` of e.
func comparePR(t *testing.T, what string, pr *PenaltyReward, lane int, e *eagerPR, want int) {
	t.Helper()
	n := pr.n
	seg := PlaneMask(n)
	if got, exp := pr.activeMask>>uint(lane*n)&seg, e.activeMask>>uint(want*n)&seg; got != exp {
		t.Fatalf("%s: lane %d active mask %#x, eager lane %d %#x", what, lane, got, want, exp)
	}
	if got, exp := pr.attention>>uint(lane*n)&seg, e.attention>>uint(want*n)&seg; got != exp {
		t.Fatalf("%s: lane %d attention %#x, eager lane %d %#x", what, lane, got, want, exp)
	}
	for j := 1; j <= n; j++ {
		i, ei := lane*(n+1)+j, want*(n+1)+j
		rew, obs := pr.counters(i, 1<<uint(lane*n+j-1))
		if pr.penalties[i] != e.pen[ei] || rew != e.rew[ei] || obs != e.obs[ei] {
			t.Fatalf("%s: lane %d node %d holds penalty %d reward %d observe %d, eager lane %d %d %d %d",
				what, lane, j, pr.penalties[i], rew, obs, want, e.pen[ei], e.rew[ei], e.obs[ei])
		}
	}
}

// prWindows are the reward and reintegration windows the fuzz draws from:
// closing every round, every other round, every third, slowly and never.
var prWindows = []int64{1, 2, 3, 100, 1 << 50}

// FuzzPenaltyRewardEvents runs the event form of Alg. 2 in a gang's
// counters against the eager oracle and compares penalties, effective
// rewards and observation counters, activity, attention and the
// isolated/reintegrated masks after every update. The ops interleave
// masked updates with random faulty columns, quiet stretches around and
// beyond the reward window, lane capture/restore, lane snapshot and
// RestoreProtocol, CopyFrom from an instance at another tick, Reset with
// a new lane count and, on one lane, UpdateNode. The seeds double as a
// regular seeded corpus in CI.
func FuzzPenaltyRewardEvents(f *testing.F) {
	f.Add(int64(1), uint32(0x0302_0304), []byte{0, 0, 1, 0, 7, 1, 2, 3, 5, 0, 1, 6, 4, 0})
	f.Add(int64(2), uint32(0x0101_0103), []byte{7, 7, 1, 1, 0, 2, 3, 0, 1, 1})
	f.Add(int64(3), uint32(0x0004_0004), []byte{4, 5, 5, 5, 0, 5, 1, 3, 5, 6, 0})
	f.Add(int64(4), uint32(0x0203_1040), []byte{0, 0, 0, 1, 3, 6, 1, 4, 2, 0, 7})
	f.Add(int64(5), uint32(0x0402_0202), []byte{0, 7, 1, 2, 2, 6, 0, 4, 4, 1})
	// Staggered observation windows (RT = 2) across lanes: a sweep closes
	// some and must keep the deadlines of the others it leaves open.
	f.Add(int64(-33), uint32(0x0203_105b), []byte("077000"))
	// Faults, a lane restored from a faulted one, then a Reset that must
	// zero the restored lane's counters too.
	f.Add(int64(4), uint32(0x0203_1040), []byte("0002%0"))
	// A one-lane snapshot restored mid-window (R = 2): the restored window
	// must still close.
	f.Add(int64(13), uint32(0x0302_0298), []byte("0C0"))
	f.Fuzz(func(t *testing.T, seed int64, shape uint32, ops []byte) {
		sizes := []int{2, 3, 4, 5, 7, 8, 13, 32, 64}
		n := sizes[int(shape&0xff)%len(sizes)]
		capLanes := int(shape>>8&0xff)%BatchLanes(n) + 1
		st := rng.NewStream(seed)
		cfg := PRConfig{
			PenaltyThreshold:       []int64{0, 1, 2, 4, 7, 1 << 50}[int(shape>>16&0xf)%6],
			RewardThreshold:        prWindows[int(shape>>20&0xf)%len(prWindows)],
			ReintegrationThreshold: append([]int64{0}, prWindows...)[int(shape>>24&0xf)%(len(prWindows)+1)],
		}
		if shape>>28&1 != 0 {
			cfg.Criticalities = make([]int64, n+1)
			for j := 1; j <= n; j++ {
				cfg.Criticalities[j] = 1 + int64(st.Intn(3))
			}
		}
		newGang := func(lanes int) *BatchProtocol {
			p, err := NewBatchProtocol(Config{N: n, ID: 1, L: 0, SendCurrRound: true, PR: cfg}, lanes)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, e := newGang(capLanes), newEagerPR(n, capLanes, cfg)
		var spare *BatchProtocol
		check := func(what string) {
			t.Helper()
			for r := 0; r < p.lanes; r++ {
				comparePR(t, what, p.pr, r, e, r)
			}
		}
		update := func(faulty uint64) {
			t.Helper()
			faulty &= p.allB
			iso, reint := p.pr.updateMasked(faulty)
			eiso, ereint := e.updateMasked(faulty)
			if iso != eiso || reint != ereint {
				t.Fatalf("tick %d: isolated %#x reintegrated %#x, eager %#x %#x", p.pr.tick, iso, reint, eiso, ereint)
			}
			check("update")
		}
		randomMask := func(density float64) uint64 {
			var m uint64
			for pos := 0; pos < p.lanes*n; pos++ {
				if st.Bool(density) {
					m |= 1 << uint(pos)
				}
			}
			return m
		}
		for k := 0; k < len(ops); k++ {
			arg := 0
			if k+1 < len(ops) {
				arg = int(ops[k+1])
			}
			switch ops[k] % 8 {
			case 0: // sparse faults
				update(randomMask(0.15))
			case 7: // a burst: faults in most columns
				update(randomMask(0.7))
			case 1: // a quiet stretch around or beyond the reward window
				win := min(cfg.RewardThreshold, 100)
				steps := []int64{win - 1, win, win + 1, 2*win + 3, int64(arg)}[arg%5]
				for s := int64(0); s < steps; s++ {
					update(0)
				}
			case 2: // capture one lane, restore it into a mask of lanes
				from := arg % p.lanes
				rec := make([]uint64, LaneRecordLen(n))
				if err := p.CaptureLane(from, rec); err != nil {
					t.Fatal(err)
				}
				lanes := (uint64(st.Uint64()) | 1<<uint(from)) & (uint64(1)<<uint(p.lanes) - 1)
				recs := make([][]uint64, bits.OnesCount64(lanes))
				for i := range recs {
					recs[i] = rec
				}
				if err := p.RestoreLanes(lanes, recs, 0); err != nil {
					t.Fatal(err)
				}
				for m := lanes; m != 0; m &= m - 1 {
					e.copyLane(bits.TrailingZeros64(m), e, from)
				}
				check("RestoreLanes")
			case 3: // a lane's snapshot restores into a one-lane protocol
				lane := arg % p.lanes
				data, err := p.SnapshotLane(lane)
				if err != nil {
					t.Fatal(err)
				}
				q, err := RestoreProtocol(data)
				if err != nil {
					t.Fatal(err)
				}
				comparePR(t, "RestoreProtocol", q.b.pr, 0, e, lane)
				if p.lanes == 1 {
					p = q.b // go on from the restored instance, at tick 0
				}
			case 4: // CopyFrom into an instance at another tick
				if spare == nil || spare.capLanes < p.lanes {
					spare = newGang(capLanes)
				}
				for s := arg % 5; s >= 0; s-- {
					spare.pr.updateMasked(randomMask(0.3) & spare.allB)
				}
				if err := spare.CopyFrom(p); err != nil {
					t.Fatal(err)
				}
				p, spare = spare, p
				check("CopyFrom")
			case 5: // Reset to a new lane count
				lanes := arg%p.capLanes + 1
				p.Reset(lanes)
				e.reset(lanes)
				check("Reset")
			case 6: // the per-slot path on one lane
				if p.lanes != 1 {
					continue
				}
				j := arg%n + 1
				health := Healthy
				if st.Bool(0.4) {
					health = Faulty
				}
				iso, reint := p.pr.UpdateNode(j, health)
				eiso, ereint := e.updateNode(j-1, health)
				if iso != eiso || reint != ereint {
					t.Fatalf("UpdateNode(%d, %v): isolated %v reintegrated %v, eager %v %v", j, health, iso, reint, eiso, ereint)
				}
				check("UpdateNode")
			}
		}
	})
}
