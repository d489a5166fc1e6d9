package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkNoRetain enforces the owned-buffer contract introduced by the
// allocation-free refactors: functions documented as returning scratch views
// (tdma.Controller.ReadAll, sim.Engine.Truth, ...) hand out slices that are
// overwritten in place on the next round, and hot-path entry points
// (core.Protocol.Step, ...) receive buffers the caller immediately reuses.
// Aliasing either past the call silently breaks the consistent-diagnosis
// property the equivalence tests pin, typically long after the aliasing
// change landed. The contract is declared with a directive on the function's
// doc comment:
//
//	//ttdiag:noretain
//
// which marks the function's reference-typed results as borrowed views
// (callers must not retain them) and its reference-typed parameters as
// borrowed inputs (the body must not retain them). "Reference-typed" covers
// slices, maps, pointers, channels and structs carrying any of those. On a
// struct field's doc comment the directive marks the field as holding a
// borrow (the rows of a core.SharedRound): every value read from it is a
// borrowed view, wherever the struct itself came from.
//
// The rule is an intra-procedural alias analysis: within each function body
// it computes the set of borrowed values — annotated parameters, results of
// calls to annotated functions, reads of annotated fields, and everything
// reachable from them through assignment, slicing, indexing, field
// selection, struct copy and append-to-borrowed — then flags the operations
// that let a borrowed value outlive the call:
//
//   - storing it into a struct field or a package-level variable (directly
//     or via an element of one);
//   - appending it to a slice held in a struct field or package-level
//     variable (unless the spread copies scalar elements);
//   - returning it from a function not itself annotated //ttdiag:noretain
//     (annotating the wrapper propagates the contract to its callers);
//   - sending it on a channel;
//   - capturing it in a closure that may run after the call (go / defer /
//     stored function values; an immediately invoked literal is fine).
//
// Copying the bytes out (copy, append with a scalar spread) is always legal
// and is the sanctioned way to retain data. The analysis does not track
// borrowed values through composite literals or through locally owned
// containers; those are caught by the escape gate's allowlist instead.
func checkNoRetain(p *pass) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &retainChecker{
				pass:     p,
				fn:       fd,
				scope:    p.noretain(p.info.Defs[fd.Name]),
				borrowed: make(map[*types.Var]string),
			}
			c.seedParams()
			c.propagate()
			c.findSinks()
		}
	}
}

// retainChecker analyzes one function body.
type retainChecker struct {
	pass *pass
	fn   *ast.FuncDecl
	// scope is fn's own //ttdiag:noretain contract: scope.params seeds its
	// parameters as borrowed, scope.results legalises returning borrows.
	scope noretainScope
	// borrowed maps each borrowed variable to a description of where the
	// borrow came from, for diagnostics.
	borrowed map[*types.Var]string
}

// objectOf resolves an identifier to its object (definition or use).
func (c *retainChecker) objectOf(id *ast.Ident) types.Object {
	if obj := c.pass.info.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.info.Defs[id]
}

// isRef reports whether values of type t alias underlying storage when
// copied: slices, maps, pointers, channels, and structs or arrays carrying
// any of those (a struct copy copies the alias-bearing headers along).
func isRef(t types.Type) bool {
	return isRefSeen(t, make(map[types.Type]bool))
}

func isRefSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if isRefSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return isRefSeen(u.Elem(), seen)
	}
	return false
}

// seedParams marks the reference-typed parameters of an annotated function
// as borrowed.
func (c *retainChecker) seedParams() {
	if !c.scope.params || c.fn.Type.Params == nil {
		return
	}
	for _, field := range c.fn.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := c.pass.info.Defs[name].(*types.Var); ok && isRef(v.Type()) {
				c.borrowed[v] = "noretain parameter " + name.Name
			}
		}
	}
}

// calleeNoRetain resolves a call's target and reports whether its results
// are declared borrowed, returning the callee name for diagnostics.
func (c *retainChecker) calleeNoRetain(call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if c.pass.noretain(c.objectOf(id)).results {
		return id.Name, true
	}
	return "", false
}

// borrowedExpr reports whether e evaluates to a borrowed value, with a
// description of the borrow's origin. Indexing, slicing and field selection
// preserve the borrow when the result still aliases (reference-typed);
// calls to annotated functions originate one; append to a borrowed slice
// may return an alias of it.
func (c *retainChecker) borrowedExpr(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.objectOf(x).(*types.Var); ok {
			if desc, ok := c.borrowed[v]; ok {
				return desc, true
			}
		}
	case *ast.SelectorExpr:
		if desc, ok := c.borrowedExpr(x.X); ok && c.refTyped(e) {
			return desc, true
		}
		if c.pass.noretain(c.objectOf(x.Sel)).results && c.refTyped(e) {
			return "borrowed field " + x.Sel.Name, true
		}
	case *ast.IndexExpr:
		if desc, ok := c.borrowedExpr(x.X); ok && c.refTyped(e) {
			return desc, true
		}
	case *ast.SliceExpr:
		if desc, ok := c.borrowedExpr(x.X); ok {
			return desc, true
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return c.borrowedExpr(x.X)
		}
	case *ast.CallExpr:
		if name, ok := c.calleeNoRetain(x); ok && c.refTyped(e) {
			return "scratch view from " + name, true
		}
		if c.isAppend(x) && len(x.Args) > 0 {
			return c.borrowedExpr(x.Args[0])
		}
	}
	return "", false
}

// refTyped reports whether the expression's type aliases storage.
func (c *retainChecker) refTyped(e ast.Expr) bool {
	tv, ok := c.pass.info.Types[e]
	return ok && isRef(tv.Type)
}

// lhsRefTyped is refTyped for assignment targets: the idents a := or range
// statement defines are not evaluated expressions and have no Types entry,
// so the declared object's type answers for them.
func (c *retainChecker) lhsRefTyped(e ast.Expr) bool {
	if tv, ok := c.pass.info.Types[e]; ok {
		return isRef(tv.Type)
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.objectOf(x).(*types.Var); ok {
			return isRef(v.Type())
		}
	case *ast.SelectorExpr:
		if v, ok := c.objectOf(x.Sel).(*types.Var); ok {
			return isRef(v.Type())
		}
	}
	return false
}

// isAppend recognises the append builtin.
func (c *retainChecker) isAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := c.objectOf(id).(*types.Builtin)
	return builtin && id.Name == "append"
}

// packageLevel reports whether v is a package-level variable.
func packageLevel(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// retainTarget classifies an lvalue (or container expression) that would
// make a store visible past the call: a struct field, a package-level
// variable, or an element of either.
func (c *retainChecker) retainTarget(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := c.objectOf(x).(*types.Var); ok && packageLevel(v) {
			return "package-level variable " + x.Name, true
		}
	case *ast.SelectorExpr:
		if v, ok := c.objectOf(x.Sel).(*types.Var); ok {
			if v.IsField() {
				return "struct field " + x.Sel.Name, true
			}
			if packageLevel(v) {
				return "package-level variable " + x.Sel.Name, true
			}
		}
	case *ast.IndexExpr:
		if desc, ok := c.retainTarget(x.X); ok {
			return "element of " + desc, true
		}
	case *ast.StarExpr:
		return c.retainTarget(x.X)
	}
	return "", false
}

// propagate grows the borrowed set to a fixpoint across the body's
// assignments, declarations and range statements.
func (c *retainChecker) propagate() {
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident, desc string) {
			v, ok := c.pass.info.Defs[id].(*types.Var)
			if !ok {
				if v, ok = c.objectOf(id).(*types.Var); !ok {
					return
				}
			}
			if packageLevel(v) || v.IsField() {
				return // stores there are sinks, not propagation
			}
			if _, seen := c.borrowed[v]; !seen {
				c.borrowed[v] = desc
				changed = true
			}
		}
		ast.Inspect(c.fn.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					// Multi-value call: x, y := provider().
					if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
						if name, ok := c.calleeNoRetain(call); ok {
							for _, lhs := range st.Lhs {
								if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && c.lhsRefTyped(lhs) {
									mark(id, "scratch view from "+name)
								}
							}
						}
					}
					return true
				}
				for i, lhs := range st.Lhs {
					if i >= len(st.Rhs) {
						break
					}
					if desc, ok := c.borrowedExpr(st.Rhs[i]); ok {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							mark(id, desc)
						}
					}
				}
			case *ast.ValueSpec:
				if len(st.Values) == 1 && len(st.Names) > 1 {
					if call, ok := ast.Unparen(st.Values[0]).(*ast.CallExpr); ok {
						if name, ok := c.calleeNoRetain(call); ok {
							for _, id := range st.Names {
								if v, ok := c.pass.info.Defs[id].(*types.Var); ok && isRef(v.Type()) {
									mark(id, "scratch view from "+name)
								}
							}
						}
					}
					return true
				}
				for i, id := range st.Names {
					if i >= len(st.Values) {
						break
					}
					if desc, ok := c.borrowedExpr(st.Values[i]); ok {
						mark(id, desc)
					}
				}
			case *ast.RangeStmt:
				if desc, ok := c.borrowedExpr(st.X); ok {
					for _, e := range []ast.Expr{st.Key, st.Value} {
						if id, ok := e.(*ast.Ident); ok && c.lhsRefTyped(e) {
							mark(id, desc)
						}
					}
				}
			}
			return true
		})
	}
}

// findSinks walks the body reporting every operation that lets a borrowed
// value outlive the call.
func (c *retainChecker) findSinks() {
	c.sinkWalk(c.fn.Body)
}

// sinkWalk recurses through the body; closure handling needs per-child
// control (an immediately invoked literal is legal, a stored or deferred
// one is a capture), hence the manual traversal instead of ast.Inspect.
func (c *retainChecker) sinkWalk(n ast.Node) {
	if n == nil {
		return
	}
	switch st := n.(type) {
	case *ast.AssignStmt:
		c.checkAssign(st)
	case *ast.ReturnStmt:
		if !c.scope.results {
			for _, r := range st.Results {
				if desc, ok := c.borrowedExpr(r); ok {
					c.pass.report(r.Pos(), "no-retain",
						"returning %s extends the borrow past the call; copy it, or annotate the enclosing function //ttdiag:noretain to pass the contract to its callers", desc)
				}
			}
		}
	case *ast.SendStmt:
		if desc, ok := c.borrowedExpr(st.Value); ok {
			c.pass.report(st.Value.Pos(), "no-retain",
				"sending %s on a channel hands the alias to another goroutine; send a copy", desc)
		}
	case *ast.CallExpr:
		c.checkAppend(st)
		// An immediately invoked literal runs before the borrow expires, so
		// its body is walked like inline code (go/defer never reach this
		// branch: their cases below intercept the call).
		if lit, ok := ast.Unparen(st.Fun).(*ast.FuncLit); ok {
			for _, arg := range st.Args {
				c.sinkWalk(arg)
			}
			c.sinkWalk(lit.Body)
			return
		}
	case *ast.GoStmt:
		c.checkDeferredCall(st.Call)
		return
	case *ast.DeferStmt:
		c.checkDeferredCall(st.Call)
		return
	case *ast.FuncLit:
		c.checkCapture(st)
		c.sinkWalk(st.Body)
		return
	}
	for _, child := range childNodes(n) {
		c.sinkWalk(child)
	}
}

// checkDeferredCall handles go/defer: even an immediately invoked literal
// runs after the current statement, so captures are checked, and borrowed
// arguments passed to the deferred call are flagged too — by the time the
// call runs, the buffer may have been overwritten.
func (c *retainChecker) checkDeferredCall(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if desc, ok := c.borrowedExpr(arg); ok {
			c.pass.report(arg.Pos(), "no-retain",
				"passing %s to a deferred call delays the use past the borrow; copy it first", desc)
		}
		c.sinkWalk(arg)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.checkCapture(lit)
		c.sinkWalk(lit.Body)
	} else {
		c.sinkWalk(call.Fun)
	}
}

// checkAssign flags stores of borrowed values into retention targets.
func (c *retainChecker) checkAssign(st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if name, ok := c.calleeNoRetain(call); ok {
				for _, lhs := range st.Lhs {
					if target, ok := c.retainTarget(lhs); ok && c.refTyped(lhs) {
						c.pass.report(lhs.Pos(), "no-retain",
							"storing scratch view from %s into %s retains a borrowed buffer; copy it instead", name, target)
					}
				}
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		desc, ok := c.borrowedExpr(st.Rhs[i])
		if !ok {
			continue
		}
		if target, ok := c.retainTarget(lhs); ok {
			c.pass.report(st.Rhs[i].Pos(), "no-retain",
				"storing %s into %s retains a borrowed buffer; copy it instead", desc, target)
		}
	}
}

// checkAppend flags appends of borrowed values into retained slices. A
// spread of scalar elements (append(dst, view...) on a []byte) copies the
// data and is the sanctioned retention idiom; a spread of reference-typed
// elements copies the aliasing headers and is still a leak.
func (c *retainChecker) checkAppend(call *ast.CallExpr) {
	if !c.isAppend(call) || len(call.Args) < 2 {
		return
	}
	target, retained := c.retainTarget(call.Args[0])
	if !retained {
		return
	}
	spread := call.Ellipsis.IsValid()
	for _, arg := range call.Args[1:] {
		desc, ok := c.borrowedExpr(arg)
		if !ok {
			continue
		}
		if spread {
			if tv, ok := c.pass.info.Types[arg]; ok {
				if sl, ok := tv.Type.Underlying().(*types.Slice); ok && !isRef(sl.Elem()) {
					continue // copies scalar elements: legal
				}
			}
		}
		c.pass.report(arg.Pos(), "no-retain",
			"appending %s to %s retains a borrowed buffer; append a copy", desc, target)
	}
}

// checkCapture flags borrowed variables captured by a closure that may run
// after the borrow expires.
func (c *retainChecker) checkCapture(lit *ast.FuncLit) {
	reported := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.objectOf(id).(*types.Var)
		if !ok || reported[v] {
			return true
		}
		desc, borrowed := c.borrowed[v]
		if !borrowed {
			return true
		}
		// Captured only if declared outside the literal.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		reported[v] = true
		c.pass.report(id.Pos(), "no-retain",
			"closure captures %s and may run after the buffer is overwritten; copy it before capturing", desc)
		return true
	})
}

// childNodes returns n's direct children, the traversal primitive of
// sinkWalk (ast.Inspect cannot stop recursion per child).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}
