package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// The conc-discipline analyzer ([conc]) keeps hand-rolled concurrency
// out of the deterministic packages. Byte-identical answers at any
// worker count depend on every fan-out gathering its results in a fixed
// order; internal/conc (Do, Pipeline) packages exactly that
// contract, while a bare `go` statement with ad-hoc channel plumbing
// reintroduces scheduler-ordered gathers one refactor at a time.
//
// Three shapes are flagged in deterministic packages:
//
//   - a bare `go` statement (detail "go"),
//   - a raw channel allocation, make(chan ...) (detail "chan"),
//   - a select statement (detail "select") — select is scheduler-
//     ordered by definition, which is precisely what a deterministic
//     package must not observe.
//
// internal/conc itself is not in the deterministic set, so the
// primitives' own implementation is exempt by construction. Suppression:
// //dwrlint:allow conc <why> (or conc:go / conc:chan / conc:select).

func analyzeConcModule(m *module, report moduleReport) {
	for _, p := range m.packages() {
		if !deterministic[p.unit] {
			continue
		}
		for _, mf := range p.files {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				switch stmt := n.(type) {
				case *ast.GoStmt:
					report(mf, stmt.Pos(), "conc", "go", fmt.Sprintf(
						"bare go statement in deterministic package %s: fan out through internal/conc (Do for bounded scatter-gather, Pipeline for staged flows) so gathers stay ordered at any width",
						p.unit))
				case *ast.SelectStmt:
					report(mf, stmt.Pos(), "conc", "select", fmt.Sprintf(
						"select statement in deterministic package %s: select wakes in scheduler order, which a replayable package must not observe; restructure around internal/conc's ordered gathers",
						p.unit))
				case *ast.CallExpr:
					if isMakeChan(p.info, stmt) {
						report(mf, stmt.Pos(), "conc", "chan", fmt.Sprintf(
							"raw channel construction in deterministic package %s: route fan-in through internal/conc instead of hand-rolled channel plumbing",
							p.unit))
					}
				}
				return true
			})
		}
	}
}

// isMakeChan reports whether call is make(chan ...), resolved via the
// type checker so a local function named make is not confused with the
// builtin.
func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	_, isChan := call.Args[0].(*ast.ChanType)
	return isChan
}
