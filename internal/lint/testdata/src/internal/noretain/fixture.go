// Package noretain exercises the //ttdiag:noretain contract: annotated
// providers hand out scratch views, annotated entry points borrow their
// parameters, and every way of extending the borrow past the call must be
// flagged while the sanctioned copy-out idioms stay quiet.
package noretain

// scratch is the buffer View hands out, overwritten by Refresh.
var scratch = make([]byte, 8)

// retained is a package-level sink the fixtures try to leak into.
var retained []byte

// View returns the package's scratch buffer; callers must not retain it.
//
//ttdiag:noretain
func View() []byte { return scratch }

// Pair returns the scratch buffer alongside a scalar, the multi-value form.
//
//ttdiag:noretain
func Pair() ([]byte, bool) { return scratch, true }

// holder is a struct the fixtures try to store borrowed views into.
type holder struct {
	buf     []byte
	entries [][]byte
}

// storeField leaks the view into a struct field.
func (h *holder) storeField() {
	h.buf = View()
}

// storeGlobal leaks the view into a package-level variable.
func storeGlobal() {
	retained = View()
}

// storeMulti leaks the first result of a multi-value provider.
func (h *holder) storeMulti() bool {
	var ok bool
	h.buf, ok = Pair()
	return ok
}

// returnView extends the borrow to the caller without the annotation that
// would pass the contract along.
func returnView() []byte {
	v := View()
	return v
}

// appendView retains the aliasing slice header inside a kept container.
func (h *holder) appendView() {
	h.entries = append(h.entries, View())
}

// sendView hands the alias to another goroutine.
func sendView(ch chan []byte) {
	select {
	case ch <- View():
	default:
	}
}

// deferView uses the view after the current statement, when the buffer may
// already be overwritten.
func deferView(use func([]byte)) {
	v := View()
	defer use(v)
}

// captureView stores a closure over the view for a later run.
func captureView(run func(func())) {
	v := View()
	run(func() { _ = v[0] })
}

// fill is a borrowing entry point: it must decode data without keeping it.
//
//ttdiag:noretain params
func (h *holder) fill(data []byte) {
	h.buf = data
}

// copyOut is the sanctioned idiom: a scalar spread copies the bytes, and the
// derived local view never leaves the call. No findings.
func (h *holder) copyOut() int {
	v := View()
	h.buf = append(h.buf[:0], v...)
	tail := v[4:]
	return len(tail)
}

// forward passes the contract along: annotating the wrapper makes returning
// the borrow legal. No findings.
//
//ttdiag:noretain
func forward() []byte {
	return View()
}

// Rows returns a scratch table of per-node views.
//
//ttdiag:noretain
func Rows() [][]byte { return [][]byte{scratch} }

// storeViaLocalMulti leaks through a multi-value local binding — the := form
// defines its idents, which have no Types entry (lhsRefTyped regression).
func storeViaLocalMulti() {
	v, ok := Pair()
	if ok {
		retained = v
	}
}

// storeViaRange leaks an element picked out of a ranged borrowed table —
// range bindings are definitions too (lhsRefTyped regression).
func (h *holder) storeViaRange() {
	for _, e := range Rows() {
		h.buf = e
	}
}

// round carries a borrow in an annotated field, as a shared round does.
type round struct {
	// rows is read only until the round's last call returns.
	//
	//ttdiag:noretain
	rows []byte
}

// input carries a borrow in an annotated field and reaches another through
// a pointer, as a round input does.
type input struct {
	// rows is read only until the call that receives the input returns.
	//
	//ttdiag:noretain
	rows   []byte
	n      int
	shared *round
}

// storeBorrowedField keeps what annotated fields hold, though the input
// itself is not a borrowed parameter, directly and through the pointer.
func (h *holder) storeBorrowedField(in *input) {
	h.buf = in.rows
	h.buf = in.shared.rows
}

// copyBorrowedField copies the bytes out, directly and through the
// pointer, and reads the plain field. No findings.
func (h *holder) copyBorrowedField(in *input) int {
	h.buf = append(h.buf[:0], in.rows...)
	h.buf = append(h.buf, in.shared.rows...)
	return in.n
}
