package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pass is the per-package context handed to each rule.
type pass struct {
	path   string
	fset   *token.FileSet
	files  []*ast.File
	info   *types.Info
	report func(pos token.Pos, rule, format string, args ...any)
	// ignorer exposes the package's //lint:ignore directives and their usage
	// marks to the stale-ignore rule.
	ignorer *ignorer
	// enabled is the rule subset this run executes; stale-ignore consults it
	// so directives for unselected rules are never reported dead.
	enabled map[string]bool
	// noretain returns the //ttdiag:noretain contract of a function object
	// (resolved across the whole analyzed root); the zero scope means no
	// annotation.
	noretain func(obj types.Object) noretainScope
}

// rule is one named check with its applicability predicate.
type rule struct {
	name    string
	applies func(pkgPath string) bool
	run     func(*pass)
}

// deterministicPkgs are the packages whose execution must be a pure function
// of configuration and seed: the protocol core, both runtimes, the TDMA
// substrate and everything that feeds them, plus the experiment and tuning
// packages whose rendered tables the golden files pin. Matching is by
// import-path suffix so the same sets cover the real module and the test
// fixture tree.
var deterministicPkgs = []string{
	"internal/core",
	"internal/sim",
	"internal/cluster",
	"internal/campaign",
	"internal/fleet",
	"internal/tdma",
	"internal/fault",
	"internal/lowlat",
	"internal/membership",
	"internal/metrics",
	"internal/replay",
	"internal/splitting",
	"internal/stats",
	"internal/trace",
	"internal/experiments",
	"internal/tuning",
}

// orderSensitivePkgs covers the packages where map-iteration order would
// leak into rendered artefacts and transcripts; since internal/trace and
// internal/stats joined the deterministic set, the two sets coincide.
var orderSensitivePkgs = deterministicPkgs

// channelPkgs hosts the goroutine-per-node runtime and the campaign worker
// pool, whose shutdown discipline the channel rule enforces. The lock-step
// simulation layer and the TDMA substrate are covered too: they must stay
// channel-free (any channel there would imply scheduling-dependent state),
// so the rule flags every unbuffered make(chan) in them.
var channelPkgs = []string{"internal/cluster", "internal/campaign", "internal/sim", "internal/tdma"}

// randExemptPkgs may touch math/rand directly: internal/rng is the sanctioned
// seeded-stream wrapper everything else must go through.
var randExemptPkgs = []string{"internal/rng"}

func inPkgs(pkgPath string, set []string) bool {
	for _, s := range set {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// rules is the registry, in reporting-priority order (output is re-sorted by
// position anyway).
var rules = []rule{
	{
		name:    "no-wallclock",
		applies: func(p string) bool { return inPkgs(p, deterministicPkgs) },
		run:     checkWallclock,
	},
	{
		name:    "no-global-rand",
		applies: func(p string) bool { return !inPkgs(p, randExemptPkgs) },
		run:     checkGlobalRand,
	},
	{
		name:    "no-map-range-state",
		applies: func(p string) bool { return inPkgs(p, orderSensitivePkgs) },
		run:     checkMapRange,
	},
	{
		name:    "channel-discipline",
		applies: func(p string) bool { return inPkgs(p, channelPkgs) },
		run:     checkChannelDiscipline,
	},
	{
		// no-retain is annotation-driven (//ttdiag:noretain), so it is safe
		// and cheap to run everywhere: packages without annotated providers
		// or borrowed values produce no findings.
		name:    "no-retain",
		applies: func(p string) bool { return true },
		run:     checkNoRetain,
	},
	{
		// stale-ignore must stay last in the registry: it audits which
		// //lint:ignore directives the rules above actually consumed. Its
		// run func is bound in init — checkStaleIgnore inspects the registry
		// itself, which would otherwise be an initialization cycle.
		name:    "stale-ignore",
		applies: func(p string) bool { return true },
	},
}

func init() {
	rules[len(rules)-1].run = checkStaleIgnore
}

// checkStaleIgnore flags //lint:ignore directives that suppressed nothing in
// this run. A directive naming a rule that did not execute on its package
// (deselected via RunRules, or inapplicable there) is skipped rather than
// reported: its liveness cannot be judged. A directive naming a rule that
// does not exist at all is always dead.
func checkStaleIgnore(p *pass) {
	known := make(map[string]bool, len(rules))
	for _, r := range rules {
		known[r.name] = true
	}
	for _, d := range p.ignorer.directives {
		if d.used {
			continue
		}
		if !known[d.rule] && d.rule != "all" {
			p.report(d.pos, "stale-ignore",
				"//lint:ignore names unknown rule %q; known rules: %s", d.rule, strings.Join(RuleNames(), ", "))
			continue
		}
		ran := false
		if d.rule == "all" {
			for _, r := range rules {
				if r.name != "stale-ignore" && p.enabled[r.name] && r.applies(p.path) {
					ran = true
					break
				}
			}
		} else {
			for _, r := range rules {
				if r.name == d.rule {
					ran = p.enabled[r.name] && r.applies(p.path)
				}
			}
		}
		if !ran {
			continue
		}
		p.report(d.pos, "stale-ignore",
			"//lint:ignore %s suppresses nothing; delete the directive or restore the exception it documented", d.rule)
	}
}

// wallclockFns are the package time functions that read or depend on the
// host clock. time.Duration arithmetic and constants stay legal — only the
// clock itself is banned from deterministic packages.
var wallclockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// checkWallclock flags any use (call or function value) of a wall-clock
// function from package time.
func checkWallclock(p *pass) {
	p.eachUse(func(id *ast.Ident, fn *types.Func) {
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallclockFns[fn.Name()] {
			p.report(id.Pos(), "no-wallclock",
				"time.%s reads the host clock; deterministic packages must derive time from the simulated schedule", fn.Name())
		}
	})
}

// globalRandFns are the top-level math/rand (and v2) functions backed by the
// shared global source. Constructors (New, NewSource, NewPCG, ...) and
// methods on an owned *rand.Rand are allowed; the seeded internal/rng
// streams are the sanctioned way to get one.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true, "NormFloat64": true, "ExpFloat64": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true, "N": true,
}

// checkGlobalRand flags uses of the global math/rand source.
func checkGlobalRand(p *pass) {
	p.eachUse(func(id *ast.Ident, fn *types.Func) {
		pkg := fn.Pkg()
		if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // a method on an owned *rand.Rand is fine
		}
		if globalRandFns[fn.Name()] {
			p.report(id.Pos(), "no-global-rand",
				"rand.%s draws from the unseeded global source; use a named stream from internal/rng", fn.Name())
		}
	})
}

// checkMapRange flags range statements over map-typed expressions: Go's map
// iteration order is deliberately randomized, so any such loop in a
// protocol, snapshot or trace code path can leak nondeterminism into emitted
// state. Iterate a sorted key slice instead, or suppress with a reason.
func checkMapRange(p *pass) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				p.report(rs.Pos(), "no-map-range-state",
					"map iteration order is nondeterministic; iterate sorted keys (or suppress with a reason if the order provably cannot escape)")
			}
			return true
		})
	}
}

// checkChannelDiscipline enforces the concurrent runtime's two structural
// rules: (1) every channel send must sit in a select with a shutdown case,
// so a node goroutine can never deadlock against a coordinator that has
// stopped listening; (2) no function may take a mutex-bearing value by copy
// (receiver or parameter), the static shadow of go vet's copylocks for the
// signatures the runtime exchanges.
func checkChannelDiscipline(p *pass) {
	for _, f := range p.files {
		// Sends that are the communication op of a select clause are the
		// sanctioned form; every other send is flagged.
		selectComms := make(map[ast.Stmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, clause := range sel.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					selectComms[cc.Comm] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			if !selectComms[send] {
				p.report(send.Arrow, "channel-discipline",
					"bare channel send can deadlock a node goroutine at shutdown; send inside a select with a quit case")
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			check := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, field := range fl.List {
					tv, ok := p.info.Types[field.Type]
					if !ok || tv.Type == nil {
						continue
					}
					if containsLock(tv.Type, make(map[types.Type]bool)) {
						p.report(field.Pos(), "channel-discipline",
							"passing a mutex-bearing value by copy duplicates its lock state; take a pointer")
					}
				}
			}
			check(fd.Recv)
			check(fd.Type.Params)
			return true
		})
	}
}

// containsLock reports whether t transitively holds sync state by value.
// Pointers (and channels, maps, slices) break the chain: sharing a pointer
// to a lock is fine, copying the lock is not.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
				return true
			}
		}
		return containsLock(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// eachUse calls fn for every identifier in the package that resolves to a
// *types.Func, covering both calls and function-value references.
func (p *pass) eachUse(fn func(id *ast.Ident, obj *types.Func)) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obj, ok := p.info.Uses[sel.Sel].(*types.Func); ok {
				fn(sel.Sel, obj)
			}
			return true
		})
	}
}
