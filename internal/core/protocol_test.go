package core

import (
	"fmt"
	"math/bits"
	"testing"

	"ttdiag/internal/rng"
)

// world is a minimal pure-core harness: it runs N protocol instances over an
// idealised TDMA round structure without the tdma substrate, so that Alg. 1
// can be tested in isolation. Faults are injected per (round, sender) for
// benign faults, per (round, sender, receiver) for asymmetric ones, and per
// (round, sender) for malicious syndrome substitution.
type world struct {
	t      *testing.T
	n      int
	protos []*Protocol

	// staged[j] is the payload node j last wrote; tx[j] is the payload most
	// recently transmitted by j together with its per-receiver validity.
	staged [][]byte
	txOK   [][]bool // txOK[j][rcv]: receiver rcv saw j's last transmission as valid
	txPay  [][]byte

	// benign((round, sender)) marks bus-wide detectable corruption.
	benign func(round, sender int) bool
	// blind((round, sender, rcv)) marks receiver-local corruption.
	blind func(round, sender, rcv int) bool
	// malicious((round, sender)) substitutes the payload with random bits.
	malicious func(round, sender int) []byte

	outputs []RoundOutput // per node, last round
	round   int
}

func newWorld(t *testing.T, n int, ls []int, allSCR bool, pr PRConfig) *world {
	t.Helper()
	w := &world{
		t:      t,
		n:      n,
		protos: make([]*Protocol, n+1),
		staged: make([][]byte, n+1),
		txOK:   make([][]bool, n+1),
		txPay:  make([][]byte, n+1),
	}
	if pr.PenaltyThreshold == 0 && pr.RewardThreshold == 0 {
		pr = PRConfig{PenaltyThreshold: 1 << 40, RewardThreshold: 1 << 40}
	}
	for id := 1; id <= n; id++ {
		l := ls[id-1]
		cfg := Config{
			N: n, ID: id, L: l,
			SendCurrRound:    l < id,
			AllSendCurrRound: allSCR,
			PR:               pr,
		}
		p, err := NewProtocol(cfg)
		if err != nil {
			t.Fatalf("NewProtocol(%d): %v", id, err)
		}
		w.protos[id] = p
		w.staged[id] = NewSyndrome(n, Healthy).Encode()
		w.txOK[id] = make([]bool, n+1)
		for r := 1; r <= n; r++ {
			w.txOK[id][r] = true
		}
		w.txPay[id] = w.staged[id]
	}
	return w
}

// runRound advances the world by one TDMA round and returns the per-node
// outputs (1-based).
func (w *world) runRound() []RoundOutput {
	w.t.Helper()
	k := w.round
	outs := make([]RoundOutput, w.n+1)
	ran := make([]bool, w.n+1)

	runJob := func(i int) {
		p := w.protos[i]
		in := RoundInput{
			Round:    k,
			DMs:      make([]Syndrome, w.n+1),
			Validity: NewSyndrome(w.n, Healthy),
		}
		for j := 1; j <= w.n; j++ {
			if w.txOK[j][i] {
				if s, err := DecodeSyndrome(w.txPay[j], w.n); err == nil {
					in.DMs[j] = s
				}
			} else {
				in.Validity[j] = Faulty
			}
		}
		self := i
		in.Collision = func(round int) Opinion {
			if w.benign != nil && w.benign(round, self) {
				return Faulty
			}
			return Healthy
		}
		out, err := p.Step(in)
		if err != nil {
			w.t.Fatalf("round %d node %d: %v", k, i, err)
		}
		outs[i] = out
		w.staged[i] = make([]byte, EncodedLen(w.n))
		out.Send.EncodeInto(w.staged[i])
		ran[i] = true
	}

	for pos := 0; pos <= w.n; pos++ {
		// Jobs scheduled at this position run before the next slot.
		for i := 1; i <= w.n; i++ {
			if !ran[i] && w.protos[i].Config().L == pos {
				runJob(i)
			}
		}
		if pos == w.n {
			break
		}
		// Transmit slot pos+1.
		sender := pos + 1
		okBase := true
		if w.benign != nil && w.benign(k, sender) {
			okBase = false
		}
		newPay := w.staged[sender]
		if w.malicious != nil {
			if sub := w.malicious(k, sender); sub != nil {
				newPay = sub
			}
		}
		w.txPay[sender] = newPay
		for rcv := 1; rcv <= w.n; rcv++ {
			ok := okBase
			if ok && w.blind != nil && w.blind(k, sender, rcv) {
				ok = false
			}
			w.txOK[sender][rcv] = ok
		}
	}
	w.round++
	w.outputs = outs
	return outs
}

// obedient reports whether node i is obedient (not malicious) in this world.
func (w *world) obedient(i int) bool {
	return w.malicious == nil || w.malicious(0, i) == nil
}

// checkAgreement asserts that all obedient nodes produced the same
// consistent health vector and returns it unpacked.
func checkAgreement(t *testing.T, w *world, outs []RoundOutput) Syndrome {
	t.Helper()
	var ref BitSyndrome
	refNode := 0
	for i := 1; i <= w.n; i++ {
		if !w.obedient(i) {
			continue
		}
		hv := outs[i].ConsHV
		if hv.Known == 0 {
			t.Fatalf("node %d: no cons_hv", i)
		}
		if refNode == 0 {
			ref, refNode = hv, i
			continue
		}
		if hv != ref {
			t.Fatalf("consistency violated: node %d says %s, node %d says %s",
				refNode, ref.String(w.n), i, hv.String(w.n))
		}
	}
	return ref.Unpack(w.n)
}

var defaultLs = [][]int{
	{0, 0, 0, 0}, // every job first thing in the round: all send_curr_round
	{0, 1, 2, 3}, // staircase: job right before own slot
	{3, 3, 3, 3}, // every job after the last slot: none send_curr_round
	{2, 0, 3, 1}, // mixed
}

func TestFaultFreeRunAllSchedules(t *testing.T) {
	for si, ls := range defaultLs {
		allSCR := si == 0
		w := newWorld(t, 4, ls, allSCR, PRConfig{})
		lag := w.protos[1].Config().Lag()
		for k := 0; k < 20; k++ {
			outs := w.runRound()
			if k < lag {
				for i := 1; i <= 4; i++ {
					if outs[i].ConsHV.Known != 0 {
						t.Fatalf("schedule %d: cons_hv emitted during warm-up round %d", si, k)
					}
				}
				continue
			}
			ref := checkAgreement(t, w, outs)
			if ref.CountFaulty() != 0 {
				t.Fatalf("schedule %d round %d: fault-free run diagnosed %v", si, k, ref)
			}
			for i := 1; i <= 4; i++ {
				if got, want := outs[i].DiagnosedRound, k-lag; got != want {
					t.Fatalf("schedule %d: diagnosed round %d, want %d", si, got, want)
				}
			}
		}
	}
}

func TestSingleBenignFaultDiagnosed(t *testing.T) {
	for si, ls := range defaultLs {
		allSCR := si == 0
		const faultRound, faultNode = 6, 3
		w := newWorld(t, 4, ls, allSCR, PRConfig{})
		w.benign = func(round, sender int) bool {
			return round == faultRound && sender == faultNode
		}
		lag := w.protos[1].Config().Lag()
		for k := 0; k < 15; k++ {
			outs := w.runRound()
			if k < lag {
				continue
			}
			ref := checkAgreement(t, w, outs)
			d := k - lag
			if d == faultRound {
				if ref[faultNode] != Faulty {
					t.Fatalf("schedule %d: completeness violated: fault in round %d not diagnosed (%v)", si, d, ref)
				}
				for j := 1; j <= 4; j++ {
					if j != faultNode && ref[j] != Healthy {
						t.Fatalf("schedule %d: correctness violated: node %d convicted (%v)", si, j, ref)
					}
				}
			} else if ref.CountFaulty() != 0 {
				t.Fatalf("schedule %d: spurious diagnosis %v for round %d", si, ref, d)
			}
		}
	}
}

// TestTable1Pipeline reproduces the Table 1 situation end-to-end: nodes 3
// and 4 are benign faulty senders in both the diagnosed and the
// dissemination round; the resulting matrices carry ε rows for them and the
// voted health vector is 1 1 0 0.
func TestTable1Pipeline(t *testing.T) {
	w := newWorld(t, 4, defaultLs[0], true, PRConfig{})
	w.benign = func(round, sender int) bool {
		return (round == 6 || round == 7) && (sender == 3 || sender == 4)
	}
	for k := 0; k < 12; k++ {
		outs := w.runRound()
		if k < 2 {
			continue
		}
		ref := checkAgreement(t, w, outs)
		d := k - 2
		if d == 6 || d == 7 {
			if ref.String() != "1100" {
				t.Fatalf("cons_hv for round %d = %v, want 1100", d, ref)
			}
			if d == 6 {
				// Dissemination (round 7) was also faulty: matrices at
				// obedient nodes 1, 2 must have ε rows for 3 and 4.
				m := w.protos[1].Matrix()
				if m.Row(3) != nil || m.Row(4) != nil {
					t.Fatalf("rows 3/4 not ε: %v", m)
				}
				if m.Opinion(2, 3) != Faulty || m.Opinion(2, 4) != Faulty {
					t.Fatalf("row 2 does not accuse 3,4:\n%v", m)
				}
			}
		}
	}
}

// TestBlackoutSelfDiagnosis exercises Lemma 3: a communication blackout of
// two whole rounds. Every node must diagnose all others faulty via its own
// local syndrome and itself faulty via the collision detector.
func TestBlackoutSelfDiagnosis(t *testing.T) {
	for si, ls := range defaultLs {
		allSCR := si == 0
		w := newWorld(t, 4, ls, allSCR, PRConfig{})
		w.benign = func(round, sender int) bool {
			return round == 6 || round == 7
		}
		lag := w.protos[1].Config().Lag()
		for k := 0; k < 16; k++ {
			outs := w.runRound()
			if k < lag {
				continue
			}
			ref := checkAgreement(t, w, outs)
			d := k - lag
			if d == 6 || d == 7 {
				if ref.String() != "0000" {
					t.Fatalf("schedule %d: blackout round %d diagnosed as %v, want 0000", si, d, ref)
				}
			} else if ref.CountFaulty() != 0 {
				t.Fatalf("schedule %d: spurious diagnosis %v for round %d", si, ref, d)
			}
		}
	}
}

// TestMaliciousSyndromesDoNotConvict checks Lemma 2 with s=1: a node that
// disseminates random syndromes must not make obedient nodes convict anyone
// (the malicious node itself sends valid frames, so it stays "healthy").
func TestMaliciousSyndromesDoNotConvict(t *testing.T) {
	st := rng.NewStream(17)
	for trial := 0; trial < 20; trial++ {
		mal := st.Intn(4) + 1
		w := newWorld(t, 4, defaultLs[trial%len(defaultLs)], trial%len(defaultLs) == 0, PRConfig{})
		w.malicious = func(round, sender int) []byte {
			if sender != mal {
				return nil
			}
			b := make([]byte, EncodedLen(4))
			st.Bytes(b)
			return b
		}
		lag := w.protos[1].Config().Lag()
		for k := 0; k < 20; k++ {
			outs := w.runRound()
			if k < lag {
				continue
			}
			ref := checkAgreement(t, w, outs)
			if ref.CountFaulty() != 0 {
				t.Fatalf("trial %d (malicious %d): obedient nodes convicted someone: %v", trial, mal, ref)
			}
		}
	}
}

// TestAsymmetricFaultConsistency checks that a single asymmetric fault
// (receiver 1 misses node 2's message) still yields an agreed health vector
// at all obedient nodes (Lemma 2 allows any value, but it must be agreed).
func TestAsymmetricFaultConsistency(t *testing.T) {
	for si, ls := range defaultLs {
		allSCR := si == 0
		w := newWorld(t, 4, ls, allSCR, PRConfig{})
		w.blind = func(round, sender, rcv int) bool {
			return round == 6 && sender == 2 && rcv == 1
		}
		lag := w.protos[1].Config().Lag()
		for k := 0; k < 16; k++ {
			outs := w.runRound()
			if k < lag {
				continue
			}
			checkAgreement(t, w, outs)
			if si == 0 && k-lag == 6 {
				// With 1 faulty vote vs 2 healthy ones the majority keeps
				// node 2 healthy.
				if outs[3].ConsHV.Get(2) != Healthy {
					t.Fatalf("node 2 convicted on minority evidence: %s", outs[3].ConsHV.String(4))
				}
			}
		}
	}
}

// TestPenaltyRewardPipeline mirrors the Sec. 8 experiment class: a fault in
// a node's slot every second round for 20 rounds; penalty and reward
// counters must alternate accordingly at every node.
func TestPenaltyRewardPipeline(t *testing.T) {
	w := newWorld(t, 4, defaultLs[1], false, PRConfig{PenaltyThreshold: 1000, RewardThreshold: 100})
	w.benign = func(round, sender int) bool {
		return sender == 2 && round >= 10 && round < 30 && (round-10)%2 == 0
	}
	lag := w.protos[1].Config().Lag()
	for k := 0; k < 40; k++ {
		outs := w.runRound()
		if outs[1].ConsHV.Known == 0 {
			continue
		}
		d := k - lag
		pr := w.protos[1].PenaltyReward()
		if d >= 10 && d < 30 {
			wantPen := int64(d-10)/2 + 1
			if (d-10)%2 == 0 && pr.Penalty(2) != wantPen {
				t.Fatalf("after faulty round %d: penalty = %d, want %d", d, pr.Penalty(2), wantPen)
			}
			if (d-10)%2 == 1 && pr.Reward(2) != 1 {
				t.Fatalf("after clean round %d: reward = %d, want 1", d, pr.Reward(2))
			}
		}
	}
	// All nodes agree on the final counters.
	for i := 2; i <= 4; i++ {
		if got, want := w.protos[i].PenaltyReward().Penalty(2), w.protos[1].PenaltyReward().Penalty(2); got != want {
			t.Fatalf("node %d penalty view %d != node 1's %d", i, got, want)
		}
	}
}

// TestIsolationAgreedRound verifies that all obedient nodes isolate a
// crashed node in the same round, and that the Isolated transition fires
// exactly once.
func TestIsolationAgreedRound(t *testing.T) {
	w := newWorld(t, 4, defaultLs[3], false, PRConfig{PenaltyThreshold: 3, RewardThreshold: 10})
	w.benign = func(round, sender int) bool { return sender == 4 && round >= 5 }
	isoRound := make([]int, 5)
	for i := range isoRound {
		isoRound[i] = -1
	}
	for k := 0; k < 20; k++ {
		outs := w.runRound()
		for i := 1; i <= 4; i++ {
			for m := outs[i].Isolated; m != 0; m &= m - 1 {
				isoNode := bits.TrailingZeros64(m) + 1
				if isoNode != 4 {
					t.Fatalf("node %d isolated healthy node %d", i, isoNode)
				}
				if isoRound[i] != -1 {
					t.Fatalf("node %d isolated twice", i)
				}
				isoRound[i] = k
			}
		}
	}
	for i := 1; i <= 4; i++ {
		if isoRound[i] == -1 {
			t.Fatalf("node %d never isolated the crashed node", i)
		}
		if isoRound[i] != isoRound[1] {
			t.Fatalf("isolation rounds disagree: %v", isoRound)
		}
	}
	// P=3 with criticality 1: isolation on the 4th faulty diagnosed round
	// (diagnosed rounds 5,6,7,8), executed at round 8+lag.
	if want := 8 + w.protos[1].Config().Lag(); isoRound[1] != want {
		t.Fatalf("isolation at round %d, want %d", isoRound[1], want)
	}
}

// TestRandomisedTheorem1 property-checks Theorem 1 over randomised schedules
// and random single benign sender faults per round (b <= 1, within the
// N > 2a+2s+b+1 bound for N=4).
func TestRandomisedTheorem1(t *testing.T) {
	st := rng.NewStream(99)
	for trial := 0; trial < 30; trial++ {
		n := 4 + st.Intn(3) // 4..6 nodes
		ls := make([]int, n)
		for i := range ls {
			ls[i] = st.Intn(n)
		}
		w := newWorld(t, n, ls, false, PRConfig{})
		faultOfRound := make(map[int]int)
		for r := 4; r < 24; r++ {
			if st.Bool(0.5) {
				faultOfRound[r] = st.Intn(n) + 1
			}
		}
		w.benign = func(round, sender int) bool { return faultOfRound[round] == sender }
		for k := 0; k < 28; k++ {
			outs := w.runRound()
			if outs[1].ConsHV.Known == 0 {
				continue
			}
			ref := checkAgreement(t, w, outs)
			d := k - 3
			for j := 1; j <= n; j++ {
				want := Healthy
				if faultOfRound[d] == j {
					want = Faulty
				}
				if ref[j] != want {
					t.Fatalf("trial %d n=%d ls=%v: round %d node %d diagnosed %v, want %v",
						trial, n, ls, d, j, ref[j], want)
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	valid := Config{N: 4, ID: 2, L: 1, SendCurrRound: true, PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"small_n", func(c *Config) { c.N = 1 }},
		{"zero_id", func(c *Config) { c.ID = 0 }},
		{"id_beyond_n", func(c *Config) { c.ID = 5 }},
		{"negative_l", func(c *Config) { c.L = -1 }},
		{"l_too_large", func(c *Config) { c.L = 4 }},
		{"scr_inconsistent", func(c *Config) { c.SendCurrRound = false }},
		{"all_scr_without_scr", func(c *Config) { c.SendCurrRound = false; c.AllSendCurrRound = true }},
		{"bad_mode", func(c *Config) { c.Mode = 99 }},
		{"bad_pr", func(c *Config) { c.PR.RewardThreshold = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestStepInputValidation(t *testing.T) {
	p, err := NewProtocol(Config{N: 4, ID: 1, L: 0, SendCurrRound: true, PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1}})
	if err != nil {
		t.Fatal(err)
	}
	good := RoundInput{Round: 0, DMs: make([]Syndrome, 5), Validity: NewSyndrome(4, Healthy)}
	if _, err := p.Step(RoundInput{Round: 3, DMs: good.DMs, Validity: good.Validity}); err == nil {
		t.Error("wrong round accepted")
	}
	if _, err := p.Step(RoundInput{Round: 0, DMs: make([]Syndrome, 3), Validity: good.Validity}); err == nil {
		t.Error("short DMs accepted")
	}
	if _, err := p.Step(RoundInput{Round: 0, DMs: good.DMs, Validity: NewSyndrome(3, Healthy)}); err == nil {
		t.Error("short validity accepted")
	}
	if _, err := p.Step(good); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	// Round must advance by one.
	if _, err := p.Step(good); err == nil {
		t.Error("repeated round accepted")
	}
}

func TestLagValues(t *testing.T) {
	if got := (Config{AllSendCurrRound: true}).Lag(); got != 2 {
		t.Errorf("AllSCR lag = %d, want 2", got)
	}
	if got := (Config{}).Lag(); got != 3 {
		t.Errorf("default lag = %d, want 3", got)
	}
}

// TestStartRoundOffset: a protocol configured with a non-zero StartRound
// (e.g. a node joining a running system) numbers its rounds absolutely.
func TestStartRoundOffset(t *testing.T) {
	p, err := NewProtocol(Config{
		N: 4, ID: 1, L: 0, SendCurrRound: true, AllSendCurrRound: true, StartRound: 100,
		PR: PRConfig{PenaltyThreshold: 1, RewardThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(round int) RoundInput {
		return RoundInput{Round: round, DMs: make([]Syndrome, 5), Validity: NewSyndrome(4, Healthy)}
	}
	if _, err := p.Step(mk(0)); err == nil {
		t.Fatal("round 0 accepted with StartRound 100")
	}
	for k := 100; k < 105; k++ {
		out, err := p.Step(mk(k))
		if err != nil {
			t.Fatal(err)
		}
		if k >= 102 {
			if out.ConsHV.Known == 0 {
				t.Fatalf("round %d: no health vector", k)
			}
			if out.DiagnosedRound != k-2 {
				t.Fatalf("round %d: diagnosed %d", k, out.DiagnosedRound)
			}
		}
	}
}

// TestProtocolDeterminism: two instances fed the identical input tape emit
// identical outputs — the foundation for the flight-recorder replay and the
// concurrent-runtime equivalence.
func TestProtocolDeterminism(t *testing.T) {
	st := rng.NewStream(71)
	cfg := Config{
		N: 4, ID: 3, L: 1, SendCurrRound: true, Mode: ModeMembership,
		PR: PRConfig{PenaltyThreshold: 4, RewardThreshold: 3},
	}
	a, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		in := RoundInput{Round: k, DMs: make([]Syndrome, 5), Validity: NewSyndrome(4, Healthy)}
		for j := 1; j <= 4; j++ {
			if st.Bool(0.25) {
				in.Validity[j] = Faulty
				continue
			}
			s := NewSyndrome(4, Healthy)
			for m := 1; m <= 4; m++ {
				if st.Bool(0.2) {
					s[m] = Faulty
				}
			}
			in.DMs[j] = s
		}
		outA, errA := a.Step(in)
		outB, errB := b.Step(in)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("round %d: error divergence", k)
		}
		if outA != outB {
			t.Fatalf("round %d: output divergence: %+v vs %+v", k, outA, outB)
		}
	}
}

// TestProtocolMatrixAccessor pins the retention contract of the per-run
// outputs: Matrix is nil until a warm Step and again after Reset, CopyFrom
// and RestoreProtocol; a returned matrix is a copy that later Steps leave
// alone; and RoundOutput is a comparable value, so outputs retained over
// many Steps still equal their first read.
func TestProtocolMatrixAccessor(t *testing.T) {
	if (RoundOutput{}) != (RoundOutput{}) {
		t.Fatal("zero RoundOutputs differ")
	}
	cfg := Config{N: 4, ID: 1, L: 0, SendCurrRound: true, PR: PRConfig{PenaltyThreshold: 3, RewardThreshold: 10}}
	p, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := rng.NewStream(17)
	round := 0
	step := func(p *Protocol) RoundOutput {
		t.Helper()
		out, err := p.Step(randomStepInput(st, cfg.N, round))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		round++
		return out
	}
	if p.Matrix() != nil {
		t.Fatal("matrix before the first Step")
	}
	for round < cfg.Lag() {
		step(p)
		if p.Matrix() != nil {
			t.Fatalf("matrix after cold round %d", round-1)
		}
	}

	var kept []RoundOutput
	var firstRead []string
	step(p)
	m := p.Matrix()
	if m == nil {
		t.Fatal("no matrix after the first warm Step")
	}
	mFirst := m.String()
	changed := false
	for i := 0; i < 12; i++ {
		out := step(p)
		kept = append(kept, out)
		firstRead = append(firstRead, fmt.Sprintf("%+v", out))
		changed = changed || p.Matrix().String() != mFirst
	}
	if !changed {
		t.Fatal("every later matrix equals the first: the retention check is vacuous")
	}
	if got := m.String(); got != mFirst {
		t.Fatalf("a later Step changed a returned matrix:\n%s\nwas\n%s", got, mFirst)
	}
	for i, out := range kept {
		if got := fmt.Sprintf("%+v", out); got != firstRead[i] {
			t.Fatalf("output %d changed after %d more Steps: %s, first read %s", i, len(kept)-i, got, firstRead[i])
		}
	}

	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreProtocol(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Matrix() != nil {
		t.Fatal("matrix after RestoreProtocol")
	}
	twin, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.CopyFrom(restored); err != nil {
		t.Fatal(err)
	}
	step(twin)
	if twin.Matrix() == nil {
		t.Fatal("no matrix after a warm Step of a copied protocol")
	}
	if err := twin.CopyFrom(p); err != nil {
		t.Fatal(err)
	}
	if twin.Matrix() != nil {
		t.Fatal("matrix after CopyFrom")
	}
	p.Reset()
	if p.Matrix() != nil {
		t.Fatal("matrix after Reset")
	}
}
