package lint

import "strings"

// All returns the full analyzer suite in the order cmd/evlint runs it.
func All() []*Analyzer {
	return []*Analyzer{
		CtxCheck, UnitCheck, FloatEq, AtomicCounter,
		DetCheck, LockHeld, GoLeak, ErrFlow,
		PurityCert, LockOrder, CtxProp, HotAlloc,
	}
}

// ByName resolves an analyzer by its pragma/CLI name.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pathHasSegments reports whether the slash-separated import path
// contains want ("internal/cloud", "dp", …) as a run of complete
// segments. Matching by segments, not substrings, lets fixture packages
// under testdata/src mimic real packages by path shape — e.g.
// "ctxcheck/internal/cloud/api" scopes like "evvo/internal/cloud".
func pathHasSegments(path, want string) bool {
	return strings.Contains("/"+path+"/", "/"+want+"/")
}

// anyPathSegment reports whether path contains any of scopes as a run of
// complete segments (pathHasSegments).
func anyPathSegment(path string, scopes []string) bool {
	for _, s := range scopes {
		if pathHasSegments(path, s) {
			return true
		}
	}
	return false
}

// lastSegment returns the final slash-separated element of path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
