package lint

// Edge-case coverage for //lint:allow waiver parsing and matching: the
// pragma grammar is load-bearing (it is the only way to ship a known
// finding), so its corner cases are pinned here rather than discovered
// in CI.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseSrc parses one synthetic file and returns its allowSet plus a
// helper resolving a (line, col=1) position for match queries.
func parseSrc(t *testing.T, src string) (*token.FileSet, allowSet, func(line int) token.Pos) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	allows := collectAllows(fset, []*ast.File{f})
	tf := fset.File(f.Pos())
	return fset, allows, func(line int) token.Pos { return tf.LineStart(line) }
}

const allowSrc = `package fix

func a() {
	_ = 1 //lint:allow floateq exact sentinel comparison

	_ = 2 //lint:allow floateq
	//lint:allow unitcheck literals are the conversion table itself
	_ = 3
	_ = 4
	//lint:allow floateq sentinel //lint:allow unitcheck raw table
	_ = 5
}
`

func TestAllowSameLine(t *testing.T) {
	fset, allows, at := parseSrc(t, allowSrc)
	reason, ok := allows.match(fset, "floateq", at(4))
	if !ok || reason != "exact sentinel comparison" {
		t.Fatalf("same-line pragma: ok=%v reason=%q", ok, reason)
	}
}

// TestAllowWrongAnalyzer: a pragma only waives the analyzer it names.
func TestAllowWrongAnalyzer(t *testing.T) {
	fset, allows, at := parseSrc(t, allowSrc)
	if _, ok := allows.match(fset, "unitcheck", at(4)); ok {
		t.Fatal("floateq pragma must not waive a unitcheck finding")
	}
}

// TestAllowMissingReason: a reasonless pragma is inert — waivers
// document why, or the finding stays active.
func TestAllowMissingReason(t *testing.T) {
	fset, allows, at := parseSrc(t, allowSrc)
	if reason, ok := allows.match(fset, "floateq", at(6)); ok {
		t.Fatalf("reasonless pragma must not waive (got reason %q)", reason)
	}
}

// TestAllowLineAbove: a standalone pragma covers the line directly
// below it.
func TestAllowLineAbove(t *testing.T) {
	fset, allows, at := parseSrc(t, allowSrc)
	reason, ok := allows.match(fset, "unitcheck", at(8))
	if !ok || reason != "literals are the conversion table itself" {
		t.Fatalf("line-above pragma: ok=%v reason=%q", ok, reason)
	}
}

// TestAllowWrongLine: two lines below the pragma is out of range — a
// waiver cannot drift away from the finding it excuses.
func TestAllowWrongLine(t *testing.T) {
	fset, allows, at := parseSrc(t, allowSrc)
	if _, ok := allows.match(fset, "unitcheck", at(9)); ok {
		t.Fatal("pragma two lines up must not waive")
	}
}

// TestAllowMultiplePerLine: one comment can waive two analyzers, each
// with its own reason.
func TestAllowMultiplePerLine(t *testing.T) {
	fset, allows, at := parseSrc(t, allowSrc)
	r1, ok1 := allows.match(fset, "floateq", at(11))
	r2, ok2 := allows.match(fset, "unitcheck", at(11))
	if !ok1 || r1 != "sentinel" {
		t.Fatalf("first pragma: ok=%v reason=%q", ok1, r1)
	}
	if !ok2 || r2 != "raw table" {
		t.Fatalf("second pragma: ok=%v reason=%q", ok2, r2)
	}
}

// TestAllowProseInert: doc prose that mentions the pragma syntax
// mid-comment must not create a waiver.
func TestAllowProseInert(t *testing.T) {
	src := `package fix

// Findings can carry a //lint:allow floateq reason-goes-here pragma.
func a() {}
`
	fset, allows, at := parseSrc(t, src)
	if _, ok := allows.match(fset, "floateq", at(4)); ok {
		t.Fatal("prose mention of the pragma syntax must stay inert")
	}
}

// staleSrc holds one live pragma, one stale pragma and one pragma that
// names no analyzer.
const staleSrc = `package dp

func eq(a, b float64) bool {
	//lint:allow floateq exact comparison is the point of this fixture
	return a == b
}

func clean(a, b int) bool {
	//lint:allow floateq nothing here compares floats
	return a == b
}

//lint:allow nosuch a pragma naming no analyzer
var x = 1
`

// runStale writes staleSrc as a fixture package and runs analyzers over it.
func runStale(t *testing.T, analyzers ...*Analyzer) *Result {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "staleallow", "internal", "dp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dp.go"), []byte(staleSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(root, "staleallow/internal/dp")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	res, err := Run(analyzers, []*Package{pkg})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func activeLines(res *Result) map[int]string {
	out := make(map[int]string)
	for _, d := range res.Active {
		out[res.Fset.Position(d.Pos).Line] = d.Analyzer + ": " + d.Message
	}
	return out
}

// TestAllowStale: a pragma that suppressed nothing is an active
// finding, and so is one naming no analyzer; the live pragma waives.
func TestAllowStale(t *testing.T) {
	res := runStale(t, FloatEq)
	if len(res.Allowed) != 1 || res.Fset.Position(res.Allowed[0].Pos).Line != 5 {
		t.Fatalf("want the live pragma to waive line 5, got %v", res.Allowed)
	}
	got := activeLines(res)
	if len(got) != 2 || !strings.Contains(got[9], "stale waiver: //lint:allow floateq") ||
		!strings.Contains(got[13], "//lint:allow nosuch names no analyzer") {
		t.Fatalf("active findings = %v, want the stale pragma (line 9) and the unknown one (line 13)", got)
	}
}

// TestAllowStaleOtherAnalyzers: under a subset run, pragmas of the
// analyzers that did not run are left alone; unknown names are not.
func TestAllowStaleOtherAnalyzers(t *testing.T) {
	got := activeLines(runStale(t, UnitCheck))
	if len(got) != 1 || !strings.Contains(got[13], "names no analyzer") {
		t.Fatalf("active findings = %v, want only the unknown pragma (line 13)", got)
	}
}
