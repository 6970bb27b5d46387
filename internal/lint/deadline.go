package lint

import (
	"go/ast"
	"go/token"
)

// The deadline-discipline analyzer ([deadline]) covers the serving
// paths (internal/server, cmd/dwrserve): a front-end that calls
// QueryTopK instead of QueryTopKWithin silently discards the request's
// remaining budget, so partition retries, hedges, and pipeline
// truncation no longer see the deadline — exactly the failure mode the
// deadline-propagation work exists to prevent.
//
// Test files are skipped: stub engines there implement and delegate
// QueryTopK as part of exercising the non-deadline interface. The
// guarded production fallbacks (an engine that does not implement
// qproc.DeadlineQuerier has no budget to propagate) carry
// //dwrlint:allow deadline annotations.
func analyzeDeadline(fc *fileCtx, report func(pos token.Pos, rule, msg string)) {
	if !deadlineUnits[fc.unit] || fc.isTest {
		return
	}
	ast.Inspect(fc.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "QueryTopK" {
			report(call.Pos(), "deadline",
				"QueryTopK drops the request deadline on a serving path: use QueryTopKWithin(terms, k, remainingMs) so the budget propagates")
		}
		return true
	})
}
