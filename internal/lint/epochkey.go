package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// EpochKey enforces the cache-key discipline the plan cache established:
// any derived state that is memoized across requests in the serving tier
// — plan caches, answer caches — is only valid for the epoch it was
// computed against. A key built from a query/plan/TBox fingerprint that
// omits the epoch silently serves stale plans after the next delta
// commit.
//
// The check is syntactic and name-directed: inside the serve-tier
// packages it looks at expressions that are used as cache keys — the
// index of a map access, the right-hand side of an assignment to a
// *key*-named variable, or an argument to a cache-shaped method
// (Get/Put/Add/Set/Insert/Lookup/Delete/Remove) — and flags any such
// expression that mentions a fingerprint/digest but never an epoch.
var EpochKey = &Analyzer{
	Name: "epochkey",
	Doc:  "serve-tier cache keys derived from a query/plan/TBox fingerprint must include the epoch as a key component",
	Run:  runEpochKey,
}

// epochKeyPkgs are the packages that hold cross-request caches.
var epochKeyPkgs = []string{"internal/server", "ogpa"}

// cacheMethodNames are method names whose arguments are treated as cache
// keys when a candidate expression is passed directly.
var cacheMethodNames = map[string]bool{
	"Get": true, "Put": true, "Add": true, "Set": true,
	"Insert": true, "Lookup": true, "Delete": true, "Remove": true,
	"get": true, "put": true, "add": true, "set": true,
	"insert": true, "lookup": true, "delete": true, "remove": true,
}

func runEpochKey(p *Pass) {
	if !pkgSuffixMatch(p.Pkg.Path, epochKeyPkgs) {
		return
	}
	check := func(e ast.Expr) {
		if e == nil {
			return
		}
		if mentionsNameLike(e, fingerprintNames) && !mentionsNameLike(e, epochNames) {
			p.Reportf(e.Pos(), "cache key is built from a fingerprint but never mixes in the epoch; a stale entry survives the next delta commit — add the epoch as a key component")
		}
	}
	p.inspectFiles(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if t := p.Pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					check(n.Index)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !strings.Contains(strings.ToLower(id.Name), "key") {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					check(n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					check(n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if !strings.Contains(strings.ToLower(id.Name), "key") {
					continue
				}
				if i < len(n.Values) {
					check(n.Values[i])
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !cacheMethodNames[sel.Sel.Name] {
				return true
			}
			if p.Pkg.Info.Selections[sel] == nil {
				return true // package-qualified call, not a method on a cache
			}
			for _, a := range n.Args {
				check(a)
			}
		}
		return true
	})
}

var (
	fingerprintNames = []string{"fingerprint", "fprint", "digest"}
	epochNames       = []string{"epoch"}
)

// mentionsNameLike reports whether any identifier (including method and
// field selectors) in e contains one of the fragments, case-insensitively.
// Nested function literals are their own scopes and are skipped.
func mentionsNameLike(e ast.Expr, fragments []string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		lower := strings.ToLower(id.Name)
		for _, f := range fragments {
			if strings.Contains(lower, f) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
