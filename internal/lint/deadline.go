package lint

import "go/ast"

// The deadline-discipline analyzer ([deadline]) covers the serving
// paths (internal/server, cmd/dwrserve): a front-end that calls
// QueryTopK instead of QueryTopKWithin silently discards the request's
// remaining budget, so partition retries, hedges, and pipeline
// truncation no longer see the deadline — exactly the failure mode the
// deadline-propagation work exists to prevent. The match is by method
// name, on any receiver, so a front-end cannot dodge it behind a local
// interface.
//
// Test files are skipped: stub engines there implement and delegate
// QueryTopK as part of exercising the non-deadline path. The one
// production fallback (a front-end configured without a deadline has no
// budget to propagate) carries a //dwrlint:allow deadline annotation.
func analyzeDeadline(m *module, report moduleReport) {
	for _, p := range m.packages() {
		if !deadlineUnits[p.unit] {
			continue
		}
		for _, mf := range p.files {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "QueryTopK" {
						report(mf, call.Pos(), "deadline", "",
							"QueryTopK drops the request deadline on a serving path: use QueryTopKWithin(terms, k, remainingMs) so the budget propagates")
					}
				}
				return true
			})
		}
	}
}
