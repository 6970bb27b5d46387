package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// The deprecated-api analyzer ([deprecated]) stops the removed qproc
// setter shims from coming back. Engines are configured with functional
// options at construction (WithWorkers, WithResultCache,
// WithFaultPolicy, WithInjector; ambient defaults via
// SetDefaultOptions); the setter surface was deleted once all call
// sites migrated. Matching is by method/function name, which is exact
// for this module: no other package declares these names.

// deprecatedSetters maps each removed shim to the option surface that
// replaced it. SetDown is excluded: it is retained (not deprecated) for
// static-topology experiments.
var deprecatedSetters = map[string]string{
	"SetWorkers":            "WithWorkers(n) at construction",
	"SetResultCache":        "WithResultCache / WithResultCacheInstance at construction",
	"SetDefaultWorkers":     "SetDefaultOptions(WithWorkers(n))",
	"SetDefaultResultCache": "SetDefaultOptions(WithResultCache(cfg))",
}

func analyzeDeprecatedAPI(fc *fileCtx, cfg Config, report func(pos token.Pos, rule, msg string)) {
	ast.Inspect(fc.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			// Same-package call (only resolvable for names declared in
			// another file, where the parser leaves Obj nil).
			if fun.Obj == nil {
				name = fun.Name
			}
		}
		if repl, ok := deprecatedSetters[name]; ok {
			report(call.Pos(), "deprecated", fmt.Sprintf(
				"deprecated qproc setter shim %s: use %s", name, repl))
		}
		return true
	})
}
