package tdma

import "fmt"

// collisionHistory is how many rounds of collision-detector verdicts a
// controller retains. The protocol only ever queries the diagnosed round,
// which trails the current round by at most three rounds; a deeper window is
// kept for diagnostics.
const collisionHistory = 16

// Controller models a node's communication controller: it holds the node's
// copies of the interface variables <v_1 ... v_N> together with their
// validity bits, stages the node's own outgoing value, and records the local
// collision-detector verdict for the node's own sending slots.
//
// A Controller is driven by the Bus in this package, which calls
// ApplyDelivery and RecordCollision in slot order, and read by the node's
// application-level jobs. It is not safe for concurrent use; the concurrent
// runtime hands each controller to its node's goroutine only for the length
// of a job or observer call, ordered by the mailbox rendezvous.
type Controller struct {
	id NodeID
	n  int

	// values[j] and valid[j] (1-based) are the local copies of interface
	// variable j and its validity bit. Each entry aliases valBuf[j], a
	// per-sender scratch buffer reused across deliveries so the steady-state
	// delivery path performs no allocation.
	values [][]byte
	valid  []bool
	valBuf [][]byte

	// validMask mirrors valid[] as a bit mask (bit j-1 = sender j) for the
	// first 64 senders, feeding the bit-packed diagnostic hot path without a
	// per-round scan. Senders beyond 64 are tracked only in valid[].
	validMask uint64

	// outbox is the staged value of this node's own interface variable,
	// transmitted at the node's next sending slot. Its backing array is
	// reused across writes.
	outbox []byte

	// ignored marks senders whose traffic must be ignored because the
	// diagnostic protocol isolated them.
	ignored []bool

	// collRound/collVerdict form a small ring of collision-detector
	// verdicts for this node's own transmissions, indexed by round.
	collRound   [collisionHistory]int
	collVerdict [collisionHistory]bool
	collSeen    [collisionHistory]bool
}

// NewController returns a controller for node id in an n-node system.
func NewController(id NodeID, n int) (*Controller, error) {
	if n < 2 {
		return nil, fmt.Errorf("tdma: controller needs at least 2 nodes, got %d", n)
	}
	if id < 1 || int(id) > n {
		return nil, fmt.Errorf("tdma: controller id %d out of range 1..%d", id, n)
	}
	return &Controller{
		id:      id,
		n:       n,
		values:  make([][]byte, n+1),
		valid:   make([]bool, n+1),
		valBuf:  make([][]byte, n+1),
		ignored: make([]bool, n+1),
	}, nil
}

// Reset returns the controller to its freshly constructed state — all
// interface copies cleared, validity bits down, outbox empty, isolation
// marks lifted, collision history wiped — while keeping its internal
// buffers for reuse across campaign repetitions.
func (c *Controller) Reset() {
	for j := 1; j <= c.n; j++ {
		c.values[j] = nil
		c.valid[j] = false
		c.ignored[j] = false
	}
	c.validMask = 0
	c.outbox = c.outbox[:0]
	c.collRound = [collisionHistory]int{}
	c.collVerdict = [collisionHistory]bool{}
	c.collSeen = [collisionHistory]bool{}
}

// ID returns the node this controller belongs to.
func (c *Controller) ID() NodeID { return c.id }

// N returns the number of nodes in the system.
func (c *Controller) N() int { return c.n }

// WriteInterface stages payload as the node's own interface-variable value;
// it will be broadcast at the node's next sending slot. The payload is
// copied into controller-owned scratch — the caller keeps ownership of its
// slice.
//
//ttdiag:noretain params
func (c *Controller) WriteInterface(payload []byte) {
	c.outbox = append(c.outbox[:0], payload...)
}

// ReadValue returns the local copy of interface variable j and its validity
// bit. The returned slice is controller-owned scratch: it must not be
// modified and is overwritten by the next delivery from j — callers must not
// retain it across slots.
//
//ttdiag:noretain
func (c *Controller) ReadValue(j NodeID) (payload []byte, valid bool) {
	if j < 1 || int(j) > c.n {
		return nil, false
	}
	return c.values[j], c.valid[j]
}

// ReadAll returns the controller's interface-variable copies and validity
// bits, both indexed 1..N (index 0 unused). Both slices and every payload
// they reference are controller-owned: they must not be modified, and they
// are overwritten in place by subsequent deliveries — callers must not
// retain them across slots. Use Snapshot for a retain-safe deep copy.
//
//ttdiag:noretain
func (c *Controller) ReadAll() (values [][]byte, valid []bool) {
	return c.values, c.valid
}

// ValidMask returns the validity bits of the first 64 interface variables as
// a bit mask (bit j-1 = sender j), the packed-path form of ReadAll's valid
// slice. Being a value, it is retain-safe.
func (c *Controller) ValidMask() uint64 { return c.validMask }

// setValid updates one validity bit together with its mask mirror.
func (c *Controller) setValid(sender NodeID, valid bool) {
	c.valid[sender] = valid
	if sender >= 1 && sender <= 64 {
		bit := uint64(1) << uint(sender-1)
		if valid {
			c.validMask |= bit
		} else {
			c.validMask &^= bit
		}
	}
}

// Snapshot returns copies of all interface-variable values and validity bits,
// both indexed 1..N (index 0 unused). It is what a diagnostic job reads at
// the start of its execution (Alg. 1, lines 1-2). Unlike ReadAll, the copies
// are freshly allocated and retain-safe; the hot path uses ReadAll and
// decodes in place instead.
func (c *Controller) Snapshot() (values [][]byte, valid []bool) {
	values = make([][]byte, c.n+1)
	valid = make([]bool, c.n+1)
	for j := 1; j <= c.n; j++ {
		if c.values[j] != nil {
			values[j] = append([]byte(nil), c.values[j]...)
		}
		valid[j] = c.valid[j]
	}
	return values, valid
}

// SetIgnored marks (or unmarks) a sender as isolated: subsequent traffic from
// it is dropped and its validity bit forced to false, as required once the
// diagnostic protocol isolates a node.
func (c *Controller) SetIgnored(sender NodeID, ignored bool) {
	if sender < 1 || int(sender) > c.n {
		return
	}
	c.ignored[sender] = ignored
	if ignored {
		c.values[sender] = nil
		c.setValid(sender, false)
	}
}

// Ignored reports whether traffic from sender is currently ignored.
func (c *Controller) Ignored(sender NodeID) bool {
	if sender < 1 || int(sender) > c.n {
		return false
	}
	return c.ignored[sender]
}

// Collision returns the collision-detector verdict for this node's own
// transmission in the given round: collided == true means the controller
// could not read its own message back from the bus. ok is false when the
// round is outside the retained history.
func (c *Controller) Collision(round int) (collided, ok bool) {
	i := round % collisionHistory
	if i < 0 {
		return false, false
	}
	if !c.collSeen[i] || c.collRound[i] != round {
		return false, false
	}
	return c.collVerdict[i], true
}

// ApplyDelivery installs what this node observed for a transmission: the
// interface-variable copy is updated together with its validity bit
// (invalid deliveries clear the value, modelling the controller discarding a
// locally detected faulty frame). The payload is copied into the
// controller's per-sender scratch buffer, so the delivery's slice stays
// owned by the caller.
//
//ttdiag:noretain params
func (c *Controller) ApplyDelivery(sender NodeID, d Delivery) {
	if sender < 1 || int(sender) > c.n {
		return
	}
	if c.ignored[sender] || !d.Valid || len(d.Payload) == 0 {
		c.values[sender] = nil
		c.setValid(sender, !c.ignored[sender] && d.Valid)
		return
	}
	c.valBuf[sender] = append(c.valBuf[sender][:0], d.Payload...)
	c.values[sender] = c.valBuf[sender]
	c.setValid(sender, true)
}

// RecordCollision stores the collision-detector verdict for the node's own
// transmission in the given round.
func (c *Controller) RecordCollision(round int, collided bool) {
	i := round % collisionHistory
	if i < 0 {
		return
	}
	c.collRound[i] = round
	c.collVerdict[i] = collided
	c.collSeen[i] = true
}

// Outbox returns the currently staged outgoing payload (nil if none). The
// returned slice is controller-owned scratch, overwritten in place by the
// next WriteInterface — callers must not retain it.
//
//ttdiag:noretain
func (c *Controller) Outbox() []byte { return c.outbox }

// CopyStateFrom overwrites this controller's complete observable state —
// interface copies, validity bits and mask, staged outbox, isolation marks,
// collision history — with src's, deep-copying every payload into this
// controller's own scratch buffers. Both controllers must model the same
// node of the same system; src is left untouched and the two share no
// mutable memory afterwards. Once this controller's per-sender buffers have
// grown to src's payload sizes the copy allocates nothing, which is what
// makes it the in-memory checkpoint path for splitting clones.
func (c *Controller) CopyStateFrom(src *Controller) error {
	if c.id != src.id || c.n != src.n {
		return fmt.Errorf("tdma: CopyStateFrom across controllers (dst node %d/%d, src node %d/%d)",
			c.id, c.n, src.id, src.n)
	}
	for j := 1; j <= c.n; j++ {
		if src.values[j] == nil {
			c.values[j] = nil
		} else {
			c.valBuf[j] = append(c.valBuf[j][:0], src.values[j]...)
			c.values[j] = c.valBuf[j]
		}
		c.valid[j] = src.valid[j]
		c.ignored[j] = src.ignored[j]
	}
	c.validMask = src.validMask
	c.outbox = append(c.outbox[:0], src.outbox...)
	c.collRound = src.collRound
	c.collVerdict = src.collVerdict
	c.collSeen = src.collSeen
	return nil
}
