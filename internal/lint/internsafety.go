package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// InternSafety keeps the hot matching paths on interned symbols.ID values
// instead of raw strings. In the packages listed in hotPathSuffixes it
// flags:
//
//   - == / != between two non-constant string expressions (label or
//     attribute comparison that should go through the intern table; a
//     comparison against a compile-time constant such as "" or a sentinel
//     is allowed — it is a cheap guard, not a per-candidate probe);
//   - map types keyed by string (indexes that should be keyed by
//     symbols.ID so probes never hash full label text).
var InternSafety = &Analyzer{
	Name: "internsafety",
	Doc:  "hot-path packages must compare labels/attributes via symbols.ID, not raw strings or map[string] indexes",
	Run:  runInternSafety,
}

// hotPathSuffixes names the packages (by import-path suffix) whose inner
// loops dominate matching time.
var hotPathSuffixes = []string{
	"internal/engine",
	"internal/match",
	"internal/daf",
	"internal/graph",
	"internal/delta",
	"internal/snap",
	"internal/inc",
}

func runInternSafety(p *Pass) {
	hot := false
	for _, suf := range hotPathSuffixes {
		if strings.HasSuffix(p.Pkg.Path, suf) {
			hot = true
			break
		}
	}
	if !hot {
		return
	}
	info := p.Pkg.Info
	p.inspectFiles(func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if e.Op != token.EQL && e.Op != token.NEQ {
				return true
			}
			if !isStringType(info.TypeOf(e.X)) || !isStringType(info.TypeOf(e.Y)) {
				return true
			}
			if isConstExpr(info, e.X) || isConstExpr(info, e.Y) {
				return true
			}
			p.Reportf(e.OpPos, "raw string comparison in hot-path package %s; compare symbols.ID instead", p.Pkg.Path)
		case *ast.MapType:
			if isStringType(info.TypeOf(e.Key)) {
				p.Reportf(e.Pos(), "map keyed by raw string in hot-path package %s; key by symbols.ID instead", p.Pkg.Path)
			}
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
