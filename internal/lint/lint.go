// Package lint is ttdiag's determinism analyzer: a stdlib-only static
// analysis pass over the repository's own source that mechanically enforces
// the invariants the cross-engine equivalence tests rely on. The concurrent
// goroutine-per-node runtime (internal/cluster) must produce bit-identical
// protocol state to the lock-step engine (internal/sim); any hidden
// nondeterminism source — wall-clock reads, the global math/rand source, Go
// map-iteration order leaking into emitted state — silently breaks the
// paper's consistent-diagnosis property (Serafini et al., DSN 2007). The
// analyzer flags those sources at the source level, where the race detector
// and example-based tests cannot see them.
//
// Six rules are implemented (see rules.go): no-wallclock, no-global-rand,
// no-map-range-state, channel-discipline, no-retain and stale-ignore. Every
// finding is individually suppressible with a directive comment on the
// offending line or the line directly above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is ignored. Directives
// that stop suppressing anything are themselves findings (stale-ignore), so
// the suppression inventory cannot silently rot. The no-retain rule is
// driven by a second directive, //ttdiag:noretain, on a function's doc
// comment: it marks the function's reference-typed results as borrowed
// scratch views and its reference-typed parameters as borrowed inputs (see
// noretain.go). The analyzer uses only go/ast, go/build, go/parser,
// go/token, go/types and go/importer, matching the module's zero-dependency
// go.mod.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned relative to the analyzed root.
type Diagnostic struct {
	// Position locates the finding; Filename is root-relative with forward
	// slashes, so diagnostic output is stable across machines.
	Position token.Position
	// Rule names the violated rule.
	Rule string
	// Message explains the finding.
	Message string
}

// String renders the finding in the stable file:line:col format CI greps.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Rule, d.Message)
}

// Run analyzes the packages matched by patterns, which are interpreted
// relative to root (a directory; "./..." walks the whole tree, "./x/..."
// walks a subtree, anything else names one package directory). When root
// contains a go.mod, its module path prefixes the import path of every
// analyzed package; otherwise import paths are the root-relative directory
// paths (the fixture-tree convention). The returned diagnostics are sorted
// by file, line, column and rule. All rules run; RunRules selects a subset.
func Run(root string, patterns []string) ([]Diagnostic, error) {
	return RunRules(root, patterns, nil)
}

// RuleNames returns the registered rule names in registry order.
func RuleNames() []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.name
	}
	return names
}

// RunRules is Run restricted to the named rules (nil or empty = all rules).
// An unknown rule name is an error. Note that stale-ignore only audits
// directives naming rules that actually ran: selecting a subset never makes
// a directive for an unselected rule look dead.
func RunRules(root string, patterns, ruleNames []string) ([]Diagnostic, error) {
	enabled := make(map[string]bool, len(rules))
	if len(ruleNames) == 0 {
		for _, r := range rules {
			enabled[r.name] = true
		}
	} else {
		known := make(map[string]bool, len(rules))
		for _, r := range rules {
			known[r.name] = true
		}
		for _, name := range ruleNames {
			if !known[name] {
				return nil, fmt.Errorf("lint: unknown rule %q (known: %s)", name, strings.Join(RuleNames(), ", "))
			}
			enabled[name] = true
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	a := &analyzer{
		root:     root,
		module:   modulePath(root),
		fset:     token.NewFileSet(),
		checked:  make(map[string]*checkedPkg),
		enabled:  enabled,
		noretain: make(map[types.Object]noretainScope),
	}
	a.std = importer.ForCompiler(a.fset, "source", nil)

	dirs, err := a.expand(patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, dir := range dirs {
		ds, err := a.analyzeDir(dir)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

// modulePath reads the module directive from root/go.mod, or returns "".
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// analyzer loads, typechecks and lints packages under one root.
type analyzer struct {
	root    string
	module  string
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*checkedPkg
	// enabled is the selected rule subset (rule name -> run it).
	enabled map[string]bool
	// noretain indexes the //ttdiag:noretain annotation across every package
	// typechecked under this root (dependencies included), so a consumer
	// package sees the contract of the provider it imports.
	noretain map[types.Object]noretainScope
}

// noretainScope records which side of a //ttdiag:noretain contract a
// function declares: borrowed parameters (the body must not retain them),
// borrowed results (callers must not retain them), or both. An annotated
// struct field has borrowed results: what is read from it is borrowed.
type noretainScope struct {
	params, results bool
}

// checkedPkg memoizes one typechecked package.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

// expand resolves the CLI patterns into package directories.
func (a *analyzer) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			base := a.root
			if pat != "..." {
				base = filepath.Join(a.root, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			}
			if err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(a.root, filepath.FromSlash(pat)))
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPath maps a directory under root to its import path.
func (a *analyzer) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(a.root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if a.module != "" {
			return a.module, nil
		}
		return "main", nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("lint: %s is outside the analyzed root %s", dir, a.root)
	}
	if a.module != "" {
		return a.module + "/" + rel, nil
	}
	return rel, nil
}

// analyzeDir typechecks one package directory and runs every rule on it.
func (a *analyzer) analyzeDir(dir string) ([]Diagnostic, error) {
	path, err := a.importPath(dir)
	if err != nil {
		return nil, err
	}
	cp := a.check(dir, path)
	if cp.err != nil {
		return nil, cp.err
	}
	ig := newIgnorer(a.fset, cp.files)
	var diags []Diagnostic
	p := &pass{
		path:    path,
		fset:    a.fset,
		files:   cp.files,
		info:    cp.info,
		ignorer: ig,
		enabled: a.enabled,
		noretain: func(obj types.Object) noretainScope {
			if obj == nil {
				return noretainScope{}
			}
			return a.noretain[obj]
		},
		report: func(pos token.Pos, rule, format string, args ...any) {
			position := a.fset.Position(pos)
			if ig.suppressed(position, rule) {
				return
			}
			if rel, err := filepath.Rel(a.root, position.Filename); err == nil {
				position.Filename = filepath.ToSlash(rel)
			}
			diags = append(diags, Diagnostic{
				Position: position,
				Rule:     rule,
				Message:  fmt.Sprintf(format, args...),
			})
		},
	}
	// Registry order matters only for stale-ignore, which is registered last
	// so it observes which directives the other rules consumed.
	for _, r := range rules {
		if a.enabled[r.name] && r.applies(path) {
			r.run(p)
		}
	}
	return diags, nil
}

// check parses and typechecks the package in dir, memoized by import path.
// Build constraints are honoured via go/build, so tag-gated files (e.g. the
// ttdiag_invariants variant of internal/invariant) are resolved exactly as
// an untagged `go build` would resolve them. _test.go files are excluded:
// tests may legitimately sleep, time out and shuffle.
func (a *analyzer) check(dir, path string) *checkedPkg {
	if cp, ok := a.checked[path]; ok {
		return cp
	}
	cp := &checkedPkg{}
	a.checked[path] = cp

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		cp.err = fmt.Errorf("lint: %s: %w", dir, err)
		return cp
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			cp.err = fmt.Errorf("lint: %w", err)
			return cp
		}
		cp.files = append(cp.files, f)
	}
	cp.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*moduleImporter)(a),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	cp.pkg, _ = conf.Check(path, a.fset, cp.files, cp.info)
	if len(typeErrs) > 0 {
		cp.err = fmt.Errorf("lint: typecheck %s: %v", path, typeErrs[0])
		return cp
	}
	// Index //ttdiag:noretain annotations now, so packages that import this
	// one (typechecking is demand-driven through moduleImporter, dependencies
	// first) can resolve the contract of the functions they call. The
	// directive optionally restricts its scope: "//ttdiag:noretain params"
	// covers only the parameters, "//ttdiag:noretain results" only the
	// results; the bare directive covers both.
	// A struct field's doc comment may carry the bare directive too: the
	// field holds a borrow, so every value read from it is a borrowed view,
	// as a result of an annotated function is.
	for _, f := range cp.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := cp.info.Defs[d.Name]; obj != nil {
					a.indexNoRetain(obj, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if obj := cp.info.Defs[name]; obj != nil {
								a.indexNoRetain(obj, field.Doc)
							}
						}
					}
				}
			}
		}
	}
	return cp
}

// indexNoRetain records the //ttdiag:noretain directive of a declaration's
// doc comment, if any. "//ttdiag:noretain params" covers only a function's
// parameters, "//ttdiag:noretain results" only its results (or what is read
// from a field); the bare directive covers both.
func (a *analyzer) indexNoRetain(obj types.Object, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//ttdiag:noretain")
		if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue
		}
		scope := a.noretain[obj]
		args := strings.Fields(text)
		if len(args) == 0 {
			scope.params, scope.results = true, true
		}
		for _, arg := range args {
			switch arg {
			case "params":
				scope.params = true
			case "results":
				scope.results = true
			}
		}
		a.noretain[obj] = scope
	}
}

// moduleImporter resolves intra-module imports by typechecking the imported
// package from source under the analyzed root, and delegates everything else
// to the stdlib source importer (GOROOT/src; no network, no go command).
type moduleImporter analyzer

var _ types.ImporterFrom = (*moduleImporter)(nil)

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (m *moduleImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	a := (*analyzer)(m)
	if a.module != "" && (path == a.module || strings.HasPrefix(path, a.module+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, a.module), "/")
		cp := a.check(filepath.Join(a.root, filepath.FromSlash(rel)), path)
		if cp.err != nil {
			return nil, cp.err
		}
		return cp.pkg, nil
	}
	return a.std.Import(path)
}

// ignorer indexes //lint:ignore directives by file and line. A directive
// suppresses matching findings on its own line (trailing comment) and on the
// line directly below it (standalone comment above the statement). Each
// directive remembers whether it ever suppressed a finding, which is what
// the stale-ignore rule audits.
type ignorer struct {
	// at[file][line] lists the directives ignoring rules at that line.
	at map[string]map[int][]*directive
	// directives lists every well-formed directive in declaration order.
	directives []*directive
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	// pos is the comment's own position (for stale-ignore findings).
	pos token.Pos
	// rule is the named rule (or "all").
	rule string
	// used records whether the directive suppressed at least one finding
	// during this analysis.
	used bool
}

func newIgnorer(fset *token.FileSet, files []*ast.File) *ignorer {
	ig := &ignorer{at: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// The reason is mandatory; an unexplained directive
					// does not suppress anything.
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ig.at[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*directive)
					ig.at[pos.Filename] = byLine
				}
				d := &directive{pos: c.Pos(), rule: fields[0]}
				byLine[pos.Line] = append(byLine[pos.Line], d)
				ig.directives = append(ig.directives, d)
			}
		}
	}
	return ig
}

func (ig *ignorer) suppressed(pos token.Position, rule string) bool {
	byLine := ig.at[pos.Filename]
	if byLine == nil {
		return false
	}
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.rule == rule || d.rule == "all" {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}
