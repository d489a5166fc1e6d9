package core

import (
	"fmt"
	"math/bits"
	"strings"
)

// tallyVerdict is the single decision point of Eqn. 1, shared by HMaj and
// Matrix.Vote:
// given the number of Faulty and Healthy votes among the non-ε opinions it
// returns ⊥ (ok == false) when there were none, Faulty on a strict Faulty
// majority, and Healthy otherwise (ties included — Eqn. 1's "else 1" branch,
// which guarantees a correct sender is never convicted by minority malicious
// votes).
func tallyVerdict(faulty, healthy int) (Opinion, bool) {
	if faulty+healthy == 0 {
		return Erased, false
	}
	if faulty > healthy {
		return Faulty, true
	}
	return Healthy, true
}

// HMaj is the hybrid-majority voting function of Eqn. 1. It receives the
// opinions of the other nodes about one diagnosed node (the diagnosed node's
// self-opinion must already be excluded by the caller) and returns:
//
//   - (_, false) — ⊥: no correct local syndrome was available, so no
//     decision can be reached (only possible during a communication
//     blackout, Lemma 3);
//   - (Faulty, true) — strictly more Faulty than Healthy votes among the
//     non-ε opinions;
//   - (Healthy, true) — otherwise (including ties, Eqn. 1's "else 1"
//     branch).
func HMaj(votes []Opinion) (Opinion, bool) {
	var faulty, healthy int
	for _, v := range votes {
		switch v {
		case Faulty:
			faulty++
		case Healthy:
			healthy++
		}
	}
	return tallyVerdict(faulty, healthy)
}

// Matrix is a diagnostic matrix for one diagnosed round: row j is the
// aligned local syndrome received from node j (ε when node j's syndrome was
// not received), and column i is the set of opinions about node i.
//
// Each row is two uint64 planes (opinion bits + presence/ε bits): SetBitRow
// installs a row with two word stores, and VoteAll runs the word-parallel
// bit-sliced voting kernel over all columns at once. The byte-per-entry
// accessors (Row, String) materialise a byte-level view lazily on first use.
// The matrix owns its storage — SetRow/SetBitRow copy the given row — so a
// Matrix returned by Protocol.Matrix stays valid even though the protocol
// reuses its scratch round over round.
type Matrix struct {
	n int
	// op/know are the row planes (1-based), rowSet the presence mask (bit
	// j-1 set iff row j is non-ε).
	op     []uint64
	know   []uint64
	rowSet uint64
	// cells is the lazily materialised byte-level view ((n+1)*(n+1),
	// row-major; row j at [j*(n+1), (j+1)*(n+1))); every row write
	// invalidates it.
	cells Syndrome
}

// NewPackedMatrix returns an empty diagnostic matrix (all rows ε). It fails
// when n exceeds MaxPackedN — one machine word must hold one opinion per
// node.
func NewPackedMatrix(n int) (*Matrix, error) {
	if err := checkFlatN(n); err != nil {
		return nil, err
	}
	// Rows are 1-based; the two index-0 words are never exposed.
	w := n + 1
	planes := make([]uint64, 2*w)
	return &Matrix{n: n, op: planes[:w:w], know: planes[w:]}, nil
}

// N returns the system size.
func (m *Matrix) N() int { return m.n }

// SetRow installs the local syndrome received from node j; a nil syndrome
// marks the row as ε. The syndrome is copied, so the caller may reuse its
// buffer afterwards. Entries outside {Faulty, Healthy, Erased} are
// normalised to ε (voting-equivalent: Eqn. 1 excludes them from the tally
// either way).
//
//ttdiag:noretain params
func (m *Matrix) SetRow(j int, s Syndrome) error {
	if j < 1 || j > m.n {
		return fmt.Errorf("core: matrix row %d out of range 1..%d", j, m.n)
	}
	if s == nil {
		m.op[j], m.know[j] = 0, 0
		m.rowSet &^= 1 << uint(j-1)
		m.cells = nil
		return nil
	}
	if s.N() != m.n {
		return fmt.Errorf("core: matrix row %d has %d entries, want %d", j, s.N(), m.n)
	}
	return m.SetBitRow(j, packSyndrome(s))
}

// SetBitRow installs a packed local syndrome as row j — the hot-path form of
// SetRow: two word stores instead of an (N+1)-entry copy.
func (m *Matrix) SetBitRow(j int, row BitSyndrome) error {
	if j < 1 || j > m.n {
		return fmt.Errorf("core: matrix row %d out of range 1..%d", j, m.n)
	}
	row = row.normalized(PlaneMask(m.n))
	m.op[j] = row.Op
	m.know[j] = row.Known
	m.rowSet |= 1 << uint(j-1)
	m.cells = nil
	return nil
}

// rowSlice returns the full-capacity-clamped byte view of row j.
func (m *Matrix) rowSlice(j int) Syndrome {
	w := m.n + 1
	return m.cells[j*w : (j+1)*w : (j+1)*w]
}

// materialise builds the byte-level view so Row can serve slices of it. Row
// views returned before the last row write stay valid (the view is
// replaced, not reused).
func (m *Matrix) materialise() {
	if m.cells != nil {
		return
	}
	w := m.n + 1
	cells := make(Syndrome, w*w)
	for j := 1; j <= m.n; j++ {
		if m.rowSet&(1<<uint(j-1)) == 0 {
			continue
		}
		row := cells[j*w : (j+1)*w]
		row[0] = Erased
		b := BitSyndrome{Op: m.op[j], Known: m.know[j]}
		for i := 1; i <= m.n; i++ {
			row[i] = b.Get(i)
		}
	}
	m.cells = cells
}

// Row returns the syndrome of row j (nil for ε). The returned slice aliases
// matrix-owned storage and must not be mutated.
func (m *Matrix) Row(j int) Syndrome {
	if j < 1 || j > m.n {
		return nil
	}
	if m.rowSet&(1<<uint(j-1)) == 0 {
		return nil
	}
	m.materialise()
	return m.rowSlice(j)
}

// BitRow returns row j as packed planes; ok is false for ε rows.
func (m *Matrix) BitRow(j int) (BitSyndrome, bool) {
	if j < 1 || j > m.n || m.rowSet&(1<<uint(j-1)) == 0 {
		return BitSyndrome{}, false
	}
	return BitSyndrome{Op: m.op[j], Known: m.know[j]}, true
}

// Opinion returns accuser's opinion about accused, Erased when the accuser's
// row is ε.
func (m *Matrix) Opinion(accuser, accused int) Opinion {
	row, ok := m.BitRow(accuser)
	if !ok {
		return Erased
	}
	return row.Get(accused)
}

// Column collects the opinions about node j from every row except row j
// itself: "the opinion of a node about itself is considered unreliable and
// discarded" (Sec. 5).
func (m *Matrix) Column(j int) []Opinion {
	votes := make([]Opinion, 0, m.n-1)
	for i := 1; i <= m.n; i++ {
		if i == j {
			continue
		}
		votes = append(votes, m.Opinion(i, j))
	}
	return votes
}

// Vote runs H-maj over column j. It is equivalent to HMaj(m.Column(j)) but
// walks the column in place instead of materialising the vote slice. For all
// columns at once, VoteAll is the word-parallel form.
func (m *Matrix) Vote(j int) (Opinion, bool) {
	return tallyVerdict(m.Tally(j))
}

// Tally counts the Faulty and Healthy opinions about column j — every non-ε
// entry of the column except node j's opinion about itself (self-opinions
// are discarded per Sec. 5). Vote is exactly tallyVerdict over this tally
// (Eqn. 1: ⊥ when both counts are zero, Faulty on a strict majority,
// Healthy otherwise including ties), so telemetry that classifies vote
// outcomes can use the same counts the verdict was derived from.
func (m *Matrix) Tally(j int) (faulty, healthy int) {
	bit := uint64(1) << uint(j-1)
	for rows := m.rowSet &^ bit; rows != 0; rows &= rows - 1 {
		i := bits.TrailingZeros64(rows) + 1
		if m.know[i]&bit == 0 {
			continue
		}
		if m.op[i]&bit != 0 {
			healthy++
		} else {
			faulty++
		}
	}
	return faulty, healthy
}

// DisagreementCount counts the definite (non-ε) off-self-column opinions
// that differ from the agreed health vector — the per-round "syndrome
// disagreement" telemetry of the diagnostic matrix: pure mask arithmetic,
// no allocation.
func (m *Matrix) DisagreementCount(consHV Syndrome) int {
	total := 0
	all := PlaneMask(m.n)
	cons := packSyndrome(consHV)
	for rows := m.rowSet; rows != 0; rows &= rows - 1 {
		i := bits.TrailingZeros64(rows) + 1
		conflict := m.know[i] & cons.Known & (m.op[i] ^ cons.Op) & all &^ (uint64(1) << uint(i-1))
		total += bits.OnesCount64(conflict)
	}
	return total
}

// VoteAll runs H-maj over every column at once and returns the result as a
// packed health vector: Known bit j-1 clear means column j voted ⊥, Op bit
// j-1 carries the Healthy/Faulty verdict otherwise. It is the gang vote
// kernel voteAllLanes on a single lane — unset rows hold zero planes and
// SetBitRow normalises to PlaneMask, so the matrix planes are already a
// valid one-lane gang — and never fails: the error result is always nil.
func (m *Matrix) VoteAll() (BitSyndrome, error) {
	op, known := voteAllLanes(m.op, m.know, m.n, 1, nil)
	return BitSyndrome{Op: op, Known: known}, nil
}

// countPlanes is the number of bit-sliced counter planes: per-column vote
// counts are at most N-1 <= 63, which fits in six bits.
const countPlanes = 6

// addPlane ripple-carry-adds the 1-bit-per-column mask into the bit-sliced
// counters: cnt[k] holds bit k of every column's count.
func addPlane(cnt *[countPlanes]uint64, mask uint64) {
	for k := 0; mask != 0 && k < countPlanes; k++ {
		carried := cnt[k] & mask
		cnt[k] ^= mask
		mask = carried
	}
}

// subPlane ripple-borrow-subtracts the 1-bit-per-column mask from the
// bit-sliced counters, the inverse of addPlane.
func subPlane(cnt *[countPlanes]uint64, mask uint64) {
	for k := 0; mask != 0 && k < countPlanes; k++ {
		borrowed := mask &^ cnt[k]
		cnt[k] ^= mask
		mask = borrowed
	}
}

// SharedRound is one round of a gang as its observers share it: the
// round's aligned rows, its healthy rows, its live lanes and one vote
// tally. Read alignment (Alg. 1 lines 1-6) makes aligned row j sender j's
// wire word of round k-1 for every observer of round k, whatever its job
// position, and Theorem 1 (correct observers vote on the same syndromes)
// lets them share one vote. The caller starts it once per round and hands
// it to every job through BatchRoundInput.Shared. It is not safe for
// concurrent use.
//
// The tally holds the matrix planes of the last full vote and its
// bit-sliced healthy and faulty column counters. A later observer whose
// installed matrix differs from the tallied one in few rows corrects a copy
// of the counters row by row instead of voting again; per-column counts are
// sums of per-row contributions, so the correction is exact for any two
// matrices of one lane layout. An observer with another layout votes in
// full, and its vote becomes the tally. The first observer of a round to
// install a matrix becomes the round's owner: another observer's matrix
// can differ from the owner's only in its own row, the owner's row (each
// holds its own syndrome there) and the rows whose presence bits differ
// from the owner's row set in some lane, the only rows it installs
// (candidates).
type SharedRound struct {
	n, round int
	// rows is borrowed from the caller until the round's last step returns.
	//
	//ttdiag:noretain
	rows              []BitSyndrome
	healthyRows, live uint64 // as passed to Start
	// laneRep is the lane replicator of the tallied vote, 0 while the tally
	// is empty.
	laneRep         uint64
	op, know        []uint64 // 1-based rows of the tallied matrix
	healthy, faulty [countPlanes]uint64
	// rowSet and owner stamp the tallied matrix with the round's owner;
	// owner is 0 while the round has none.
	rowSet uint64
	owner  int
}

// NewSharedRound returns an empty shared round for n-node gangs.
func NewSharedRound(n int) *SharedRound {
	w := n + 1
	planes := make([]uint64, 2*w)
	return &SharedRound{n: n, op: planes[:w:w], know: planes[w:]}
}

// Start begins round `round`. rows[j] (1-based) is sender j's lane-packed
// wire word of round k-1, the aligned row j of every observer; healthyRows
// marks (bit j-1) the rows all-Healthy and fully Known in every live lane,
// so a step whose aligned rows are all marked and present skips its
// install (0 is always correct; a false bit is a caller bug, checked under
// ttdiag_invariants); live marks (bit r·N) the lanes whose telemetry and
// causal events record the round. The tally's matrix is kept, its owner
// dropped.
func (t *SharedRound) Start(round int, rows []BitSyndrome, healthyRows, live uint64) {
	t.round, t.rows, t.healthyRows, t.live = round, rows, healthyRows, live
	t.owner = 0
}

// tallyMaxRows is the most differing rows an observer corrects the tally
// by before it votes in full. A full vote adds two masks per row into the
// counters; a corrected row subtracts the tally row's changed columns and
// adds its own, four counter updates, on top of copying the twelve counter
// words. A full vote that replaces the tally also copies the matrix into
// it. So a correction costs about as much as a full vote once half the rows
// differ; a quarter keeps a clear margin for the correction's fixed cost.
func tallyMaxRows(n int) int { return n/4 + 1 }

// record makes the observer's installed matrix the tally: it copies the
// planes and counts them from scratch. The tally has no owner until
// stamped.
func (t *SharedRound) record(op, know []uint64, laneRep uint64) {
	healthy, faulty := tallyLanes(op, know, t.n, laneRep)
	t.rebase(op, know, laneRep, &healthy, &faulty)
}

// rebase makes the matrix op/know with the given counters the tally, as
// record does without counting again.
func (t *SharedRound) rebase(op, know []uint64, laneRep uint64, healthy, faulty *[countPlanes]uint64) {
	copy(t.op, op[:t.n+1])
	copy(t.know, know[:t.n+1])
	t.laneRep = laneRep
	t.healthy, t.faulty = *healthy, *faulty
	t.owner = 0
}

// stamp makes observer owner, which installed the tallied matrix with the
// lane-packed row set rowSet, the round's owner.
func (t *SharedRound) stamp(rowSet uint64, owner int) {
	t.rowSet, t.owner = rowSet, owner
}

// current reports whether the round has an owner.
func (t *SharedRound) current() bool { return t.owner != 0 }

// candidates returns the rows (bit j-1 = row j) in which observer id's
// matrix of the round, installed with the row set rowSet from the round's
// rows in the lane layout laneRep, can differ from the tallied one, and
// false when the tally has no owner in the round or another layout.
// Outside the own and the owner's rows, row j of both matrices is the
// round's row j restricted to the lanes whose row set holds j, so it can
// differ only where the two row sets do: folding their difference over the
// lanes finds those rows.
func (t *SharedRound) candidates(laneRep, rowSet uint64, id int) (uint64, bool) {
	if !t.current() || t.laneRep != laneRep {
		return 0, false
	}
	var rows uint64
	for x := rowSet ^ t.rowSet; x != 0; x >>= uint(t.n) {
		rows |= x
	}
	return rows&PlaneMask(t.n) | 1<<uint(id-1) | 1<<uint(t.owner-1), true
}

// correct returns the tally's counters moved to the matrix op/know, which
// differs from the tallied one only in the rows of differ (bit j-1 = row
// j) and shares its lane layout: each differing row gives back the columns
// only the tallied row held and adds the columns only its own holds.
func (t *SharedRound) correct(op, know []uint64, differ uint64) (healthy, faulty [countPlanes]uint64) {
	healthy, faulty = t.healthy, t.faulty
	for d := differ; d != 0; d &= d - 1 {
		j := bits.TrailingZeros64(d) + 1
		self := t.laneRep << uint(j-1)
		was, is := t.know[j]&^self, know[j]&^self
		wasH, isH := t.op[j]&was, op[j]&is
		wasF, isF := was&^t.op[j], is&^op[j]
		subPlane(&healthy, wasH&^isH)
		addPlane(&healthy, isH&^wasH)
		subPlane(&faulty, wasF&^isF)
		addPlane(&faulty, isF&^wasF)
	}
	return healthy, faulty
}

// String renders the matrix in the layout of Table 1, including the voted
// consistent health vector.
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteString("accuser\\accused |")
	for j := 1; j <= m.n; j++ {
		fmt.Fprintf(&b, " %d", j)
	}
	b.WriteString("\n")
	for i := 1; i <= m.n; i++ {
		fmt.Fprintf(&b, "node %-10d |", i)
		for j := 1; j <= m.n; j++ {
			if i == j {
				b.WriteString(" -")
				continue
			}
			fmt.Fprintf(&b, " %s", m.Opinion(i, j))
		}
		b.WriteString("\n")
	}
	b.WriteString("voted cons_hv   |")
	for j := 1; j <= m.n; j++ {
		if v, ok := m.Vote(j); ok {
			fmt.Fprintf(&b, " %s", v)
		} else {
			b.WriteString(" ?")
		}
	}
	b.WriteString("\n")
	return b.String()
}
