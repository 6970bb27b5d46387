package lint

import (
	"go/ast"
	"go/token"
)

// The seed-plumbing analyzer ([seed]) polices how *rand.Rand values are
// constructed in deterministic packages. The contract: every generator
// is derived from an explicit seed, and non-test code goes through
// internal/randx.New so seeds stay visible at the call site and
// greppable in one place. Three shapes are flagged:
//
//   - rand.New(src) where src is not a literal rand.NewSource(...)
//     call: the source's provenance is invisible, so the generator
//     cannot be audited for determinism.
//   - rand.NewSource(expr) where expr reads the wall clock
//     (the classic rand.NewSource(time.Now().UnixNano())).
//   - in non-test files, any rand.New at all: use randx.New(seed).
//     Test files may use rand.New(rand.NewSource(<explicit seed>)),
//     which is equally deterministic and keeps fixtures stdlib-only.
//
// internal/randx itself is the one blessed wrapper; it is not in the
// deterministic package set, so its own rand.New is out of scope.
func analyzeSeedPlumbing(fc *fileCtx, report func(pos token.Pos, rule, msg string)) {
	if !deterministic[fc.unit] {
		return
	}
	randName := fc.importName("math/rand")
	if randName == "" {
		return
	}
	timeName := fc.importName("time")
	ast.Inspect(fc.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPkgSel(call.Fun, randName, "New"):
			if len(call.Args) != 1 {
				return true
			}
			src, ok := call.Args[0].(*ast.CallExpr)
			if !ok || !isPkgSel(src.Fun, randName, "NewSource") {
				report(call.Pos(), "seed",
					"rand.New with a source of invisible provenance: construct generators with randx.New(seed)")
				return true
			}
			if !fc.isTest {
				report(call.Pos(), "seed",
					"rand.New(rand.NewSource(...)) outside a test: use randx.New(seed) so seed plumbing stays auditable")
			}
		case isPkgSel(call.Fun, randName, "NewSource"):
			if len(call.Args) == 1 && timeName != "" && readsWallClock(call.Args[0], timeName) {
				report(call.Pos(), "seed",
					"rand.NewSource seeded from the wall clock: every run draws a different stream; use an explicit seed")
			}
		}
		return true
	})
}

// readsWallClock reports whether expr contains a call of a wall-clock
// function of package time.
func readsWallClock(expr ast.Expr, timeName string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok &&
			wallclockFuncs[sel.Sel.Name] && isPkgSel(sel, timeName, sel.Sel.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}
