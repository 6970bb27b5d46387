package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fieldReaderKeep names struct fields no program reads that stay because
// a test reads each one to check an invariant of production behaviour.
var fieldReaderKeep = map[string]string{
	"crawler.RecrawlStats.Failures": "TestRecrawlConditionalRequests: a failed revisit is counted, not dropped",
	"server.Report.Admitted":        "FuzzRun: admitted = served + timed out",
	"server.ClassReport.Offered":    "FuzzRun: offered = admitted + shed per class",
	"server.ClassReport.Served":     "FuzzRun: served requests are conserved per class",
	"server.ClassReport.MaxMs":      "FuzzRun and TestRunDeadlineEnforcement: no served request outlives its deadline",
	"server.ClassReport.Shed":       "TestRunShedsBatchFirst: load shedding drops batch before interactive",
}

// TestStructFieldsHaveAReader type-checks every package of the repository
// (tests excluded) and fails on a field of a struct declared under
// internal/ that no non-test file reads. A read is any use of the field
// but the target of =, :=, op=, ++ or --, or a key in a composite
// literal, or a use that only feeds the field itself: on the right of
// an assignment to the same field, in the condition of an if whose body
// is one assignment to it, or in x.F.Merge(y.F). A struct compared with
// == or !=, or passed where an empty interface is expected (fmt,
// encoding/json, reflect) — as a value, through a pointer, or as the
// element of a slice, array or map — counts as reading every one of its
// fields. Blank fields, embedded fields and
// fields with a json: tag are exempt. A field nothing reads is state the
// program pays to fill and never uses.
func TestStructFieldsHaveAReader(t *testing.T) {
	m := loadRepo(t)
	internal := m.modPath + "/internal/"

	// owner maps each in-scope field to the name of its struct.
	owner := map[*types.Var]string{}
	for _, p := range m.packages() {
		if p.info == nil || !strings.HasPrefix(p.pkg.Path()+"/", internal) {
			continue
		}
		for _, mf := range p.files {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					if len(fl.Names) == 0 || (fl.Tag != nil && hasJSONTag(fl.Tag.Value)) {
						continue
					}
					for _, id := range fl.Names {
						if f, ok := p.info.Defs[id].(*types.Var); ok && id.Name != "_" {
							owner[f] = p.pkg.Name() + "." + ts.Name.Name + "." + id.Name
						}
					}
				}
				return true
			})
		}
	}

	read := map[*types.Var]bool{}
	seen := map[types.Type]bool{}
	var readFields func(types.Type)
	readFields = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Pointer:
			readFields(u.Elem())
		case *types.Slice:
			readFields(u.Elem())
		case *types.Array:
			readFields(u.Elem())
		case *types.Map:
			readFields(u.Key())
			readFields(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
			}
		}
	}
	for _, p := range m.packages() {
		if p.info == nil {
			continue
		}
		// stored holds the selectors that are the target of a store, and
		// selfFed those whose read only feeds the same field. A statement
		// is visited before its operands, so a selector is marked before
		// the walk reaches it.
		stored := map[*ast.SelectorExpr]bool{}
		selfFed := map[*ast.SelectorExpr]bool{}
		store := func(e ast.Expr) {
			if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
				stored[sel] = true
			}
		}
		field := func(e ast.Expr) *types.Var {
			if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var).Origin()
				}
			}
			return nil
		}
		feeds := func(f *types.Var, e ast.Expr) {
			if f == nil {
				return
			}
			ast.Inspect(e, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && field(sel) == f {
					selfFed[sel] = true
				}
				return true
			})
		}
		for _, mf := range p.files {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						store(lhs)
						if len(n.Lhs) == len(n.Rhs) {
							feeds(field(lhs), n.Rhs[i])
						}
					}
				case *ast.IfStmt:
					if len(n.Body.List) == 1 {
						if as, ok := n.Body.List[0].(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
							feeds(field(as.Lhs[0]), n.Cond)
						}
					}
				case *ast.IncDecStmt:
					store(n.X)
				case *ast.SelectorExpr:
					if f := field(n); f != nil && !stored[n] && !selfFed[n] {
						read[f] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readFields(p.info.TypeOf(n.X))
					}
				case *ast.CallExpr:
					if m, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && m.Sel.Name == "Merge" && len(n.Args) == 1 {
						if f := field(m.X); f != nil && field(n.Args[0]) == f {
							feeds(f, m.X)
							feeds(f, n.Args[0])
						}
					}
					sig, ok := p.info.TypeOf(n.Fun).(*types.Signature)
					if !ok {
						break
					}
					for i, arg := range n.Args {
						if param := paramType(sig, i, n.Ellipsis.IsValid()); param != nil && isEmptyInterface(param) {
							if typ := p.info.TypeOf(arg); typ != nil && !types.IsInterface(typ) {
								readFields(typ)
							}
						}
					}
				}
				return true
			})
		}
	}

	var unread []string
	kept := map[string]bool{}
	for f, name := range owner {
		if read[f] {
			continue
		}
		if _, keep := fieldReaderKeep[name]; keep {
			kept[name] = true
		} else {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	t.Logf("struct fields under internal/ no program reads: %d", len(unread)+len(kept))
	for _, name := range unread {
		t.Errorf("%s: written, but no program, experiment, example or benchmark reads it; delete it and what fills it", name)
	}
	for name := range fieldReaderKeep {
		if !kept[name] {
			t.Errorf("fieldReaderKeep names %s, which a program reads now or which no longer exists", name)
		}
	}
}

// hasJSONTag reports whether a raw struct tag literal carries a json key.
func hasJSONTag(lit string) bool {
	_, ok := reflect.StructTag(strings.Trim(lit, "`")).Lookup("json")
	return ok
}

// paramType is the type the i-th argument of a call to sig is passed as:
// the variadic element type past the last fixed parameter, unless the
// call spreads a slice with ... (or append spreads a string).
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := params.At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok && !spread {
			return s.Elem()
		}
		return last
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

// isEmptyInterface reports whether t is any or interface{}.
func isEmptyInterface(t types.Type) bool {
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.NumMethods() == 0
}
