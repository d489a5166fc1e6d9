// Package membership extends the diagnostic protocol into the group
// membership service of Sec. 7. The underlying core protocol runs in
// membership mode (analysis before dissemination, minority accusations); this
// package adds the view bookkeeping: a new unique view is formed whenever a
// member is consistently deemed faulty, and — because the consistent health
// vector is agreed by every obedient node — all obedient nodes install
// identical views in identical rounds (view synchrony over the diagnosed
// prefix of messages).
package membership

import (
	"fmt"
	"math/bits"

	"ttdiag/internal/core"
)

// View is one membership view: the set of nodes that have received the same
// set of messages (one clique).
type View struct {
	// ID increases by one per view change; the initial view has ID 0.
	ID int
	// Members are the node IDs in the view, ascending.
	Members []int
	// FormedAtRound is the (absolute) round in which the view was installed;
	// -1 for the initial view.
	FormedAtRound int
}

// Contains reports whether node j is in the view.
func (v View) Contains(j int) bool {
	for _, m := range v.Members {
		if m == j {
			return true
		}
	}
	return false
}

// clone returns a deep copy so callers can hold Views across steps.
func (v View) clone() View {
	return View{ID: v.ID, Members: append([]int(nil), v.Members...), FormedAtRound: v.FormedAtRound}
}

// Output is the result of one membership-service round.
type Output struct {
	// Diag is the underlying diagnostic round output (including minority
	// accusations raised in this round).
	Diag core.RoundOutput
	// ViewChanged reports whether a new view was installed in this round.
	ViewChanged bool
	// View is the current view after the round.
	View View
}

// Service is the per-node membership service: the modified diagnostic
// protocol plus view management. Create one per node and call Step once per
// TDMA round, exactly like core.Protocol.
type Service struct {
	proto   *core.Protocol
	view    View
	history []View
	// outMask marks the nodes excluded from the membership (bit j-1 = node
	// j), so the per-round exclusion check is two word operations.
	outMask uint64
}

// New builds the membership service for one node. The configuration's Mode
// is forced to core.ModeMembership.
func New(cfg core.Config) (*Service, error) {
	if cfg.Mode != 0 && cfg.Mode != core.ModeMembership {
		return nil, fmt.Errorf("membership: config mode must be ModeMembership, got %d", cfg.Mode)
	}
	cfg.Mode = core.ModeMembership
	proto, err := core.NewProtocol(cfg)
	if err != nil {
		return nil, err
	}
	members := make([]int, cfg.N)
	for j := 1; j <= cfg.N; j++ {
		members[j-1] = j
	}
	return &Service{
		proto: proto,
		view:  View{ID: 0, Members: members, FormedAtRound: -1},
	}, nil
}

// Protocol exposes the underlying diagnostic protocol.
func (s *Service) Protocol() *core.Protocol { return s.proto }

// Reset returns the service to its freshly constructed state — the
// underlying protocol restarts its warm-up, the initial full view is
// reinstalled and the view history is cleared — so one instance can be
// reused across campaign repetitions. Views handed out earlier are
// unaffected (View and History return copies).
func (s *Service) Reset() {
	s.proto.Reset()
	n := s.proto.Config().N
	members := make([]int, n)
	for j := 1; j <= n; j++ {
		members[j-1] = j
	}
	s.view = View{ID: 0, Members: members, FormedAtRound: -1}
	s.history = s.history[:0]
	s.outMask = 0
}

// View returns the current view.
func (s *Service) View() View { return s.view.clone() }

// History returns every view installed so far, oldest first, including the
// initial full view. Obedient nodes hold identical histories (view
// synchrony applies to every transition).
func (s *Service) History() []View {
	out := make([]View, 0, len(s.history)+1)
	for _, v := range s.history {
		out = append(out, v.clone())
	}
	return append(out, s.view.clone())
}

// Step executes one round of the membership service. Like
// core.Protocol.Step, the input's slices stay caller-owned.
//
//ttdiag:noretain params
func (s *Service) Step(in core.RoundInput) (Output, error) {
	diag, err := s.proto.Step(in)
	if err != nil {
		return Output{}, err
	}
	return s.finish(diag), nil
}

// StepPacked executes one round on packed observations (the zero-conversion
// entry of the hot path — see core.Protocol.StepPacked). The input's slices
// stay caller-owned.
//
//ttdiag:noretain params
func (s *Service) StepPacked(in core.PackedRoundInput) (Output, error) {
	diag, err := s.proto.StepPacked(in)
	if err != nil {
		return Output{}, err
	}
	return s.finish(diag), nil
}

// finish folds one diagnostic round into the view bookkeeping.
func (s *Service) finish(diag core.RoundOutput) Output {
	out := Output{Diag: diag}
	// Newly convicted members in two word ops: known-Faulty entries not yet
	// excluded (zero during warm-up).
	fresh := (diag.ConsHV.Known &^ diag.ConsHV.Op) &^ s.outMask
	changed := fresh != 0
	if changed {
		s.outMask |= fresh
		var members []int
		for rem := core.PlaneMask(s.proto.Config().N) &^ s.outMask; rem != 0; rem &= rem - 1 {
			members = append(members, bits.TrailingZeros64(rem)+1)
		}
		s.history = append(s.history, s.view)
		s.view = View{ID: s.view.ID + 1, Members: members, FormedAtRound: diag.Round}
	}
	out.ViewChanged = changed
	out.View = s.view.clone()
	return out
}
