package lint

import (
	"go/ast"
	"go/types"
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
func analyzeSeedPlumbing(m *module, report moduleReport) {
	for _, p := range m.packages() {
		if !deterministic[p.unit] {
			continue
		}
		for _, mf := range p.all {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				switch randFunc(mf.info, call.Fun) {
				case "New":
					if src, ok := call.Args[0].(*ast.CallExpr); !ok || randFunc(mf.info, src.Fun) != "NewSource" {
						report(mf, call.Pos(), "seed", "",
							"rand.New with a source of invisible provenance: construct generators with randx.New(seed)")
					} else if !mf.test {
						report(mf, call.Pos(), "seed", "",
							"rand.New(rand.NewSource(...)) outside a test: use randx.New(seed) so seed plumbing stays auditable")
					}
				case "NewSource":
					clock := false
					eachSink(mf.info, call.Args[0], func(_ ast.Expr, _ *types.Func, rule string) {
						clock = clock || rule == "wallclock"
					})
					if clock {
						report(mf, call.Pos(), "seed", "",
							"rand.NewSource seeded from the wall clock: every run draws a different stream; use an explicit seed")
					}
				}
				return true
			})
		}
	}
}

// randFunc names the package-level math/rand function e refers to, or
// returns "".
func randFunc(info *types.Info, e ast.Expr) string {
	if f := pkgFunc(info, e); f != nil && f.Pkg().Path() == "math/rand" {
		return f.Name()
	}
	return ""
}
