// Package escape is the allocation gate of the static-analysis suite: it
// runs the Go compiler's escape analysis (go build -gcflags=-m) over the
// hot-path packages and diffs the heap-escape sites against a committed
// allowlist, internal/lint/escape.golden. The steady-state protocol step
// allocates nothing; a change that makes a previously stack-allocated value
// escape would erode that silently — benchmarks catch it only for the paths
// they cover, the gate catches it for every function in the hot packages at
// compile time.
//
// Sites are keyed by "file: message" with the line and column dropped, so
// unrelated edits that only shift line numbers never churn the allowlist;
// identical messages in one file are folded into a count. A new key, or a
// higher count for an existing key, fails the gate. A vanished or shrunk key
// is only a warning prompting a regeneration (-update-escapes): losing an
// allocation is progress, not a failure.
//
// The -m diagnostics vary across compiler releases, so the allowlist records
// the go1.X toolchain that produced it; Diff refuses to judge a report from
// a different toolchain and the caller downgrades the gate to a warning.
package escape

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// HotPackages are the allocation-sensitive packages the gate covers: the
// protocol core, the TDMA substrate, the lock-step engine, the campaign
// driver, the metrics layer, the hierarchical fleet layer and the causal
// trace layer — everything on the steady-state round path.
var HotPackages = []string{
	"./internal/core",
	"./internal/tdma",
	"./internal/sim",
	"./internal/campaign",
	"./internal/fleet",
	"./internal/metrics",
	"./internal/splitting",
	"./internal/trace",
}

// Report is one escape-analysis run reduced to gate form.
type Report struct {
	// Toolchain is the go1.X major.minor that produced the diagnostics.
	Toolchain string
	// Counts maps each site key ("file: message") to its occurrence count.
	Counts map[string]int
}

// Analyze compiles pkgs (module-relative ./ patterns) under root with
// -gcflags=-m and collects the heap-escape sites. The build cache replays
// compiler diagnostics, so a warm run costs milliseconds.
func Analyze(root string, pkgs []string) (*Report, error) {
	if len(pkgs) == 0 {
		pkgs = HotPackages
	}
	r := &Report{Counts: make(map[string]int)}

	out, err := command(root, "go", "env", "GOVERSION")
	if err != nil {
		return nil, err
	}
	r.Toolchain = MajorMinor(strings.TrimSpace(string(out)))

	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	out, err = command(root, "go", args...)
	if err != nil {
		return nil, err
	}
	parse(r, out)
	return r, nil
}

// command runs one tool under dir, returning its combined output; a nonzero
// exit surfaces the output as the error (compile errors must not read as "no
// escapes").
func command(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("escape: %s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return out, nil
}

// MajorMinor truncates a GOVERSION like go1.24.0 to go1.24; devel and gotip
// strings are passed through unchanged (they never match a release golden).
func MajorMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "go") {
		return v
	}
	return parts[0] + "." + parts[1]
}

// parse folds the compiler's -m output into the report. Lines look like
//
//	# ttdiag/internal/core
//	internal/core/bits.go:128:11: make(Syndrome, n + 1) escapes to heap
//	internal/core/protocol.go:497:2: moved to heap: out
//	<autogenerated>:1: .dict escapes to heap
//
// Only the escape diagnostics are kept (inlining chatter is ignored), keyed
// by file and message with positions dropped. Autogenerated wrappers have no
// stable file, so they are attributed to the package header above them.
func parse(r *Report, out []byte) {
	pkg := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasSuffix(line, " escapes to heap") && !strings.Contains(line, "moved to heap: ") {
			continue
		}
		file, msg, ok := splitSite(line)
		if !ok {
			continue
		}
		if file == "<autogenerated>" {
			file = "<autogenerated in " + pkg + ">"
		}
		r.Counts[filepath.ToSlash(file)+": "+msg]++
	}
}

// splitSite separates "file:line[:col]: message", tolerating the col-less
// form <autogenerated>:1: uses.
func splitSite(line string) (file, msg string, ok bool) {
	i := strings.Index(line, ".go:")
	if i < 0 {
		if rest, found := strings.CutPrefix(line, "<autogenerated>:"); found {
			_, msg, ok = strings.Cut(rest, ": ")
			return "<autogenerated>", msg, ok
		}
		return "", "", false
	}
	file = line[:i+3]
	rest := line[i+4:] // "line:col: message"
	_, msg, ok = strings.Cut(rest, ": ")
	if !ok {
		return "", "", false
	}
	// The position may be line:col or just line; strip one more segment when
	// the remainder still starts with a number + ": ".
	if n, tail, found := strings.Cut(msg, ": "); found {
		if _, err := strconv.Atoi(n); err == nil {
			msg = tail
		}
	}
	return file, msg, true
}

// Format renders the report in golden-file form: a comment header recording
// the toolchain and the regeneration command, then one "count\tkey" line per
// site, sorted by key.
func (r *Report) Format() []byte {
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Escape-analysis allowlist for the hot-path packages (%s).\n", strings.Join(pkgList(), ", "))
	fmt.Fprintf(&b, "# Regenerate with: go run ./cmd/ttdiag-lint -update-escapes\n")
	fmt.Fprintf(&b, "# toolchain: %s\n", r.Toolchain)
	for _, k := range keys {
		fmt.Fprintf(&b, "%d\t%s\n", r.Counts[k], k)
	}
	return b.Bytes()
}

func pkgList() []string {
	out := make([]string, len(HotPackages))
	for i, p := range HotPackages {
		out[i] = strings.TrimPrefix(p, "./")
	}
	return out
}

// WriteFile writes the report to path in golden-file form.
func (r *Report) WriteFile(path string) error {
	return os.WriteFile(path, r.Format(), 0o644)
}

// Load reads a golden allowlist written by WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{Counts: make(map[string]int)}
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# toolchain: "); ok {
				r.Toolchain = strings.TrimSpace(rest)
			}
			continue
		}
		countStr, key, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("escape: %s:%d: malformed line %q", path, ln+1, line)
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("escape: %s:%d: bad count %q", path, ln+1, countStr)
		}
		r.Counts[key] = n
	}
	return r, nil
}

// Delta is one divergence between the allowlist and the current build.
type Delta struct {
	// Key is the "file: message" site.
	Key string
	// Golden and Current are the allowlisted and observed counts (zero when
	// the site is absent on that side).
	Golden, Current int
}

// Diff compares a current report against the golden allowlist. Grown sites
// (new keys, higher counts) fail the gate; shrunk sites only suggest
// regenerating the allowlist. A toolchain mismatch returns an error — -m
// output is not comparable across compiler releases.
func Diff(golden, current *Report) (grown, shrunk []Delta, err error) {
	if golden.Toolchain != current.Toolchain {
		return nil, nil, fmt.Errorf("escape: allowlist was built with %s, current toolchain is %s; regenerate with -update-escapes under the pinned toolchain", golden.Toolchain, current.Toolchain)
	}
	keys := make(map[string]bool, len(golden.Counts)+len(current.Counts))
	for k := range golden.Counts {
		keys[k] = true
	}
	for k := range current.Counts {
		keys[k] = true
	}
	for k := range keys {
		g, c := golden.Counts[k], current.Counts[k]
		switch {
		case c > g:
			grown = append(grown, Delta{Key: k, Golden: g, Current: c})
		case c < g:
			shrunk = append(shrunk, Delta{Key: k, Golden: g, Current: c})
		}
	}
	byKey := func(s []Delta) func(i, j int) bool {
		return func(i, j int) bool { return s[i].Key < s[j].Key }
	}
	sort.Slice(grown, byKey(grown))
	sort.Slice(shrunk, byKey(shrunk))
	return grown, shrunk, nil
}
