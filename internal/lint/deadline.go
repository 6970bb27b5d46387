package lint

import "go/ast"

// The deadline-discipline analyzer ([deadline]) keeps each budget on one
// clock on the serving paths (internal/server, cmd/dwrserve).
// QueryTopKWithin's budget is the cost model's virtual ms, and the one
// driver stepping virtual time is server.Run: its (simState).start
// hands the engine the remainder. Every other serving call site judges
// its deadline on the wall clock and asks with QueryTopK, so a
// QueryTopKWithin call anywhere else in the unit is the finding,
// whichever file computed its budget. The match is by method name, on
// any receiver. Test files are skipped: stubs there implement
// QueryTopKWithin.
func analyzeDeadline(m *module, report moduleReport) {
	for _, p := range m.packages() {
		if !deadlineUnits[p.unit] {
			continue
		}
		for _, mf := range p.files {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return p.unit != "server" || funcLabel(n) != "(simState).start"
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "QueryTopKWithin" {
						report(mf, n.Pos(), "deadline", "",
							"QueryTopKWithin takes a modelled-ms budget, which only (simState).start steps: judge the deadline on this path's clock and call QueryTopK")
					}
				}
				return true
			})
		}
	}
}
