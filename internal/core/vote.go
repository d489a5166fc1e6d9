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
// j-1 carries the Healthy/Faulty verdict otherwise. It is the bit-sliced
// kernel (O(N·log N) word operations) and never fails: the error result is
// always nil.
func (m *Matrix) VoteAll() (BitSyndrome, error) {
	return m.voteAllPlanes(), nil
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

// voteAllPlanes is the word-parallel voting kernel: every set row
// contributes its healthy and faulty opinion masks (self-opinion column
// removed per Sec. 5) to two bit-sliced per-column counters, and the final
// Faulty verdicts fall out of one bit-sliced comparison — the borrow of the
// 6-bit subtraction healthy − faulty, computed with the full-subtractor
// recurrence borrow' = (¬h ∧ (f ∨ borrow)) ∨ (f ∧ borrow). Columns with no
// contribution at all are ⊥, and ties land on Healthy because a tie produces
// no borrow — exactly Eqn. 1.
func (m *Matrix) voteAllPlanes() BitSyndrome {
	all := PlaneMask(m.n)
	var healthy, faulty [countPlanes]uint64
	var any uint64
	for rows := m.rowSet; rows != 0; rows &= rows - 1 {
		i := bits.TrailingZeros64(rows) + 1
		valid := m.know[i] & all &^ (uint64(1) << uint(i-1))
		if valid == 0 {
			continue
		}
		any |= valid
		addPlane(&healthy, m.op[i]&valid)
		addPlane(&faulty, valid&^m.op[i])
	}
	var borrow uint64
	for k := 0; k < countPlanes; k++ {
		borrow = (^healthy[k] & (faulty[k] | borrow)) | (faulty[k] & borrow)
	}
	return BitSyndrome{Op: any &^ borrow, Known: any}
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

// Tolerates reports whether an N-node system satisfies the fault hypothesis
// of Lemma 2 for a asymmetric, s symmetric-malicious and b benign faulty
// senders over one protocol execution: N > 2a + 2s + b + 1 and a <= 1. The
// benign-only blackout regime (Lemma 3) is handled separately and reported
// by ToleratesBenignOnly.
func Tolerates(n, a, s, b int) bool {
	if a < 0 || s < 0 || b < 0 {
		return false
	}
	return a <= 1 && n > 2*a+2*s+b+1
}

// ToleratesBenignOnly reports whether the benign-only regime of Lemma 3
// applies: every fault is benign and correct local collision detection is
// available for self-diagnosis. It holds for any b up to N.
func ToleratesBenignOnly(n, b int) bool {
	return b >= 0 && b <= n
}
