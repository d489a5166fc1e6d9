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

// Views is the view rule of Sec. 7 for a gang of lane-packed repetitions of
// one node (lane r holds bits [r·N, (r+1)·N) of a plane word, as in
// core.BatchProtocol): a lane installs a new view — the next ID, the members
// not convicted so far, formed in the current round — whenever its
// consistent health vector convicts a node still in the view. Service is
// its one-lane view; sim.BatchDiagCluster keeps one per node in membership
// mode.
type Views struct {
	n int
	// out marks the nodes excluded from each lane's membership, lane-packed,
	// so the per-round exclusion check is two word operations.
	out uint64
	// id[r] is lane r's view ID, which is also its number of view changes;
	// formed[r] the round its view was installed, -1 for the initial view.
	id     []int
	formed []int
}

// NewViews returns the view state of `lanes` repetitions of an n-node
// system, every lane in the initial full view.
func NewViews(n, lanes int) *Views {
	v := &Views{n: n, id: make([]int, lanes), formed: make([]int, lanes)}
	v.Reset()
	return v
}

// Reset reinstalls the initial full view (ID 0, formed at round -1) in
// every lane.
func (v *Views) Reset() {
	v.out = 0
	for r := range v.id {
		v.id[r] = 0
		v.formed[r] = -1
	}
}

// Install folds one round's lane-packed consistent health vectors into the
// lanes marked in lanes (bit r = lane r) and returns the lanes that
// installed a new view. A node is convicted by a Known Faulty entry, so
// the warm-up rounds, which know nothing, change nothing.
func (v *Views) Install(round int, consOp, consKnown, lanes uint64) uint64 {
	var changed uint64
	for fresh := (consKnown &^ consOp) &^ v.out; fresh != 0; {
		r := bits.TrailingZeros64(fresh) / v.n
		seg := core.PlaneMask(v.n) << uint(r*v.n)
		if lanes&(1<<uint(r)) != 0 {
			v.out |= fresh & seg
			v.id[r]++
			v.formed[r] = round
			changed |= 1 << uint(r)
		}
		fresh &^= seg
	}
	return changed
}

// View returns lane's current view; the members are a fresh slice.
func (v *Views) View(lane int) View {
	rem := core.PlaneMask(v.n) &^ core.LaneView(v.out, lane, v.n)
	var members []int
	if rem != 0 {
		members = make([]int, 0, bits.OnesCount64(rem))
	}
	for ; rem != 0; rem &= rem - 1 {
		members = append(members, bits.TrailingZeros64(rem)+1)
	}
	return View{ID: v.id[lane], Members: members, FormedAtRound: v.formed[lane]}
}

// Service is the per-node membership service: the modified diagnostic
// protocol plus view management. Create one per node and call Step once per
// TDMA round, exactly like core.Protocol.
type Service struct {
	proto *core.Protocol
	// views is the one-lane view rule; view is its current view,
	// materialised once per change for View and History.
	views   *Views
	view    View
	history []View
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
	views := NewViews(cfg.N, 1)
	return &Service{proto: proto, views: views, view: views.View(0)}, nil
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
	s.views.Reset()
	s.view = s.views.View(0)
	s.history = s.history[:0]
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
	if s.views.Install(diag.Round, diag.ConsHV.Op, diag.ConsHV.Known, 1) != 0 {
		s.history = append(s.history, s.view)
		s.view = s.views.View(0)
		out.ViewChanged = true
	}
	out.View = s.view.clone()
	return out
}
