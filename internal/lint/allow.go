package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowPragma is one parsed //lint:allow <analyzer> <reason> comment. It
// suppresses findings of the named analyzer on its own line and on the
// line directly below (so the pragma can sit above the offending
// statement, like a //nolint directive).
//
// A pragma without a reason is deliberately inert: waivers document WHY
// or they do not waive. The underlying finding then stays active, so a
// forgotten reason surfaces in CI instead of silently suppressing.
//
// A pragma that suppresses nothing is stale, and Run reports it as an
// active finding: otherwise a rule that stops firing under a waiver
// would vanish silently.
type allowPragma struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// allowSet indexes pragmas by file for cheap position matching.
type allowSet map[string][]*allowPragma

const allowPrefix = "//lint:allow"

// parseAllows parses every //lint:allow pragma in a single comment. The
// comment must START with the pragma (prose that merely mentions the
// syntax stays inert), but one comment may then carry several
// ("//lint:allow floateq r1 //lint:allow unitcheck r2"); each pragma's
// reason runs to the start of the next. Pragmas with an empty analyzer
// name or an empty reason are dropped.
func parseAllows(c *ast.Comment) []allowPragma {
	text := c.Text
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	var out []allowPragma
	parts := strings.Split(text, allowPrefix)
	for _, part := range parts[1:] {
		rest := strings.TrimSpace(part)
		name, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		if name == "" || reason == "" {
			continue
		}
		out = append(out, allowPragma{analyzer: name, reason: reason})
	}
	return out
}

// collectAllows gathers every //lint:allow pragma in the package.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pragmas := parseAllows(c)
				if len(pragmas) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, p := range pragmas {
					p.pos, p.file, p.line = c.Pos(), pos.Filename, pos.Line
					set[pos.Filename] = append(set[pos.Filename], &p)
				}
			}
		}
	}
	return set
}

// match reports whether a pragma for analyzer covers pos: same line
// (trailing comment) or the line immediately above (standalone comment).
// The matching pragma is marked used.
func (s allowSet) match(fset *token.FileSet, analyzer string, pos token.Pos) (string, bool) {
	p := fset.Position(pos)
	for _, a := range s[p.Filename] {
		if a.analyzer != analyzer {
			continue
		}
		if a.line == p.Line || a.line == p.Line-1 {
			a.used = true
			return a.reason, true
		}
	}
	return "", false
}

// stale returns a finding for every pragma that suppressed nothing and
// names an analyzer in ran, and for every pragma naming no analyzer at
// all. Pragmas of known analyzers that did not run are left alone.
func (s allowSet) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, pragmas := range s { // Run sorts the findings by position
		for _, a := range pragmas {
			switch {
			case ran[a.analyzer] && !a.used:
				out = append(out, Diagnostic{Analyzer: staleAllowName, Pos: a.pos, Message: fmt.Sprintf(
					"stale waiver: //lint:allow %s suppressed no finding; delete it", a.analyzer)})
			case !ran[a.analyzer] && ByName(a.analyzer) == nil:
				out = append(out, Diagnostic{Analyzer: staleAllowName, Pos: a.pos, Message: fmt.Sprintf(
					"//lint:allow %s names no analyzer; see evlint -list", a.analyzer)})
			}
		}
	}
	return out
}

// staleAllowName is the Diagnostic.Analyzer of stale-waiver findings.
const staleAllowName = "lint:allow"
