package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The stats-merge completeness analyzer ([statsmerge]) guards the
// scatter-gather accounting invariant: when an aggregation folds
// per-partition (or per-site) counter structs into a total, every
// countable field of the source struct must be consumed — a counter
// written on the partition path but dropped at the gather silently
// under-reports work forever (the PostingBytesDecoded regression class).
//
// Detection is structural, not name-based, so it covers QueryResult,
// rank.EvalStats, the metrics counter structs, and any counter struct a
// future PR adds:
//
//   - A FOLD is a `dst.Field += src.Field` statement (the RHS may be a
//     sum; each struct-field operand counts). The LHS must itself be a
//     field — a merge function builds an aggregate OBJECT. Sampling
//     loops that project a few counters into scalar locals
//     (`waves += qr.Waves`) are reporting, not merging, and are out of
//     scope. Folds are grouped by the source struct's named type and
//     the source expression it is read off (e.g. all `out.? += es.X` in
//     one function form the group (EvalStats, "es")).
//   - A group with >= 2 distinct folded fields is an AGGREGATION SITE:
//     the function is clearly merging that struct, so every countable
//     field of the struct must be read off the same source expression
//     somewhere in the function — folded, max-folded, or inspected.
//   - Countable fields are basic numeric fields, plus struct-typed
//     fields whose type has a Merge method (a counter bundle that knows
//     how to fold itself must be given the chance to).
//
// Findings anchor at the group's first fold statement and carry the
// missing field as detail, so intentional drops are suppressed per field:
// //dwrlint:allow statsmerge:FieldName <why>.

// foldGroup accumulates one (function, source struct, source root)'s
// folds and reads.
type foldGroup struct {
	named  *types.Named
	root   string // types.ExprString of the source expression
	pos    token.Pos
	folded map[string]bool
}

func analyzeStatsMergeModule(m *module, report moduleReport) {
	for _, p := range m.packages() {
		for _, mf := range p.files {
			for _, decl := range mf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkMergeFunc(p, mf, fd, report)
			}
		}
	}
}

func checkMergeFunc(p *modPackage, mf *modFile, fd *ast.FuncDecl, report moduleReport) {
	info := p.info
	groups := map[string]*foldGroup{}

	// Pass 1: find folds.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ADD_ASSIGN || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		if _, ok := unparen(as.Lhs[0]).(*ast.SelectorExpr); !ok {
			return true // accumulating into a scalar local: a projection, not a merge
		}
		for _, src := range foldSources(as.Rhs[0]) {
			named, root, field, ok := fieldRead(info, src)
			if !ok {
				continue
			}
			key := groupKey(named, root)
			g := groups[key]
			if g == nil {
				g = &foldGroup{named: named, root: root, pos: as.Pos(), folded: map[string]bool{}}
				groups[key] = g
			}
			g.folded[field] = true
		}
		return true
	})

	// Any group folding >= 2 distinct fields marks an aggregation site.
	var active []*foldGroup
	for _, g := range groups {
		if len(g.folded) >= 2 {
			active = append(active, g)
		}
	}
	if len(active) == 0 {
		return
	}
	sort.Slice(active, func(i, j int) bool { return active[i].pos < active[j].pos })

	// Pass 2: every field read off every source root, fold or not.
	reads := map[string]map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		named, root, field, ok := fieldRead(info, sel)
		if !ok {
			return true
		}
		key := groupKey(named, root)
		if reads[key] == nil {
			reads[key] = map[string]bool{}
		}
		reads[key][field] = true
		return true
	})

	for _, g := range active {
		st, ok := g.named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		seen := reads[groupKey(g.named, g.root)]
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !countableField(f) || seen[f.Name()] {
				continue
			}
			report(mf, g.pos, "statsmerge", f.Name(), fmt.Sprintf(
				"counter %s.%s is dropped by the aggregation in %s: %d sibling fields of %q are folded here but this one is never read, so gathered totals silently under-report; fold it or annotate //dwrlint:allow statsmerge:%s <why>",
				g.named.Obj().Name(), f.Name(), funcLabel(fd), len(g.folded), g.root, f.Name()))
		}
	}
}

// foldSources collects the struct-field operands of a += right-hand
// side: the selector itself, or the selector operands of a top-level
// sum. Operands behind calls, indexing, or other operators are ignored —
// those are derived values, not direct counter folds.
func foldSources(rhs ast.Expr) []*ast.SelectorExpr {
	switch e := unparen(rhs).(type) {
	case *ast.SelectorExpr:
		return []*ast.SelectorExpr{e}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return append(foldSources(e.X), foldSources(e.Y)...)
		}
	}
	return nil
}

// fieldRead resolves sel as a field read off a named-struct base and
// returns the base type, the base expression's canonical string (the
// group root), and the field name.
func fieldRead(info *types.Info, sel *ast.SelectorExpr) (*types.Named, string, string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, "", "", false
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", "", false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil, "", "", false
	}
	return named, types.ExprString(sel.X), sel.Sel.Name, true
}

func groupKey(named *types.Named, root string) string {
	return named.Obj().Id() + "|" + root
}

// countableField reports whether a struct field is a counter the merge
// must account for: basic numeric fields, and struct fields whose type
// carries a Merge method. Pointers, slices, maps, bools, strings, and
// interfaces are carried by reference or semantics, not summed.
func countableField(f *types.Var) bool {
	switch t := f.Type().Underlying().(type) {
	case *types.Basic:
		return t.Info()&types.IsNumeric != 0
	case *types.Struct:
		named, ok := f.Type().(*types.Named)
		if !ok {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "Merge")
		_, isFunc := obj.(*types.Func)
		return isFunc
	}
	return false
}

// funcLabel names a function for messages: Func or (Recv).Method.
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}
