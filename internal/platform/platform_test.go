package platform

import (
	"testing"
	"time"

	"ttdiag/internal/fault"
	"ttdiag/internal/sim"
)

func TestProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.SlotLen() <= 0 {
			t.Errorf("%s: slot length %v", p.Name, p.SlotLen())
		}
		if len(p.SlotLens) == 0 && p.SlotLen()*time.Duration(p.N) != p.RoundLen {
			t.Errorf("%s: slots do not tile the round", p.Name)
		}
	}
}

func TestProfileNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range All() {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
	if !seen["TTP/C"] || !seen["FlexRay"] || !seen["SAFEbus"] || !seen["TT-Ethernet"] {
		t.Errorf("missing profiles: %v", seen)
	}
}

func TestSpreadScheduleMixesSendCurrRound(t *testing.T) {
	for _, p := range All() {
		cfg := p.ClusterConfig()
		scr, nonSCR := 0, 0
		for i, l := range cfg.Ls {
			if l < i+1 {
				scr++
			} else {
				nonSCR++
			}
		}
		if scr == 0 || nonSCR == 0 {
			t.Errorf("%s: schedule %v does not mix send_curr_round values", p.Name, cfg.Ls)
		}
	}
}

// TestProtocolPortableAcrossProfiles runs the identical fault scenario on
// every platform profile and audits Theorem 1 — the protocol code is the
// same on all platforms, as Sec. 10 requires.
func TestProtocolPortableAcrossProfiles(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			eng, runners, err := sim.NewDiagnosticCluster(p.ClusterConfig())
			if err != nil {
				t.Fatal(err)
			}
			col := sim.NewCollector()
			obedient := make([]int, p.N)
			for id := 1; id <= p.N; id++ {
				col.HookDiag(id, runners[id])
				obedient[id-1] = id
			}
			eng.Bus().AddDisturbance(fault.NewTrain(
				fault.SlotBurst(eng.Schedule(), 6, 2, 1),
				fault.Blackout(eng.Schedule(), 10, 1),
			))
			if err := eng.RunRounds(20); err != nil {
				t.Fatal(err)
			}
			if err := sim.AuditTheorem1(eng, col, obedient, 4, 16); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiagnosticMessageBandwidth checks the Sec. 10 bandwidth claim on every
// profile: the diagnostic message is N bits (⌈N/8⌉ bytes).
func TestDiagnosticMessageBandwidth(t *testing.T) {
	for _, p := range All() {
		eng, _, err := sim.NewDiagnosticCluster(p.ClusterConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunRounds(2); err != nil {
			t.Fatal(err)
		}
		want := (p.N + 7) / 8
		if got := len(eng.Controller(1).Outbox()); got != want {
			t.Errorf("%s: diagnostic message is %d bytes, want %d", p.Name, got, want)
		}
	}
}

func TestSAFEbusHeterogeneousTable(t *testing.T) {
	p := SAFEbus()
	if len(p.SlotLens) != p.N {
		t.Fatalf("SAFEbus slot table has %d entries", len(p.SlotLens))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.SlotLen(); got != 50*time.Microsecond {
		t.Fatalf("shortest slot = %v", got)
	}
	eng, _, err := sim.NewDiagnosticCluster(p.ClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Schedule().Uniform() {
		t.Fatal("heterogeneous table not applied")
	}
	if eng.Schedule().RoundLen() != p.RoundLen {
		t.Fatalf("round length %v", eng.Schedule().RoundLen())
	}
}

func TestProfileValidateBadSlotTables(t *testing.T) {
	p := SAFEbus()
	p.SlotLens = p.SlotLens[:3]
	if err := p.Validate(); err == nil {
		t.Error("short slot table accepted")
	}
	p = SAFEbus()
	p.SlotLens[0] = 0
	if err := p.Validate(); err == nil {
		t.Error("zero slot accepted")
	}
	p = SAFEbus()
	p.SlotLens[0] += time.Microsecond
	if err := p.Validate(); err == nil {
		t.Error("non-tiling slot table accepted")
	}
}
