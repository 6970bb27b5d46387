package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The cache-key completeness analyzer ([cachekey]) machine-checks the
// pr=/ts=/sel= rule the result caches depend on: a cache-key function
// must encode every result-affecting option, and must NOT encode budget
// options that leave within-budget answers identical.
//
// A cache-key function is any function whose name ends in "CacheKey"
// (DocCacheKey, TermCacheKey, FederatedCacheKey). Two
// obligations are checked from its type information:
//
//   - For a parameter whose named type ends in "QueryOptions": every
//     field must be read somewhere in the body — an option the key never
//     looks at means differently-optioned evaluations collide in the
//     cache — EXCEPT fields whose name contains "Deadline" or "Budget",
//     which must NOT be read: a deadline changes when an answer arrives,
//     never what it contains, so keying on it only fragments the cache.
//     If the whole options value escapes (passed to another function,
//     stringified), every field counts as read — including the forbidden
//     ones, which are then reported.
//   - Every other named parameter must be used in the body: an ignored
//     parameter is a key component the caller believes is encoded.
//
// Per-field suppression uses the detail-qualified directive form,
// //dwrlint:allow cachekey:FieldName <why>.

const optionsSuffix = "QueryOptions"

func analyzeCacheKeyModule(m *module, report moduleReport) {
	for _, p := range m.packages() {
		for _, mf := range p.files {
			for _, decl := range mf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !strings.HasSuffix(fd.Name.Name, "CacheKey") {
					continue
				}
				checkCacheKeyFunc(p, mf, fd, report)
			}
		}
	}
}

func checkCacheKeyFunc(p *modPackage, mf *modFile, fd *ast.FuncDecl, report moduleReport) {
	info := p.info
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj, _ := info.Defs[name].(*types.Var)
			if obj == nil {
				continue
			}
			if optType := optionsStructOf(obj.Type()); optType != nil {
				checkOptionsParam(mf, fd, info, obj, optType, report)
			} else if !paramUsed(fd.Body, info, obj) {
				report(mf, name.Pos(), "cachekey", name.Name, fmt.Sprintf(
					"cache-key function %s never uses parameter %q: callers believe it is part of the key; encode it or drop the parameter",
					fd.Name.Name, name.Name))
			}
		}
	}
}

// optionsStructOf returns the named struct type of an options parameter
// (*FooQueryOptions or FooQueryOptions), or nil.
func optionsStructOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), optionsSuffix) {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

func checkOptionsParam(mf *modFile, fd *ast.FuncDecl, info *types.Info, param *types.Var, named *types.Named, report moduleReport) {
	st := named.Underlying().(*types.Struct)

	// Collect field reads off any expression of the options type, and
	// whether the parameter escapes whole (all-fields-read, conservatively).
	read := map[string]ast.Expr{} // field name -> the selector that read it
	selectorBases := map[*ast.Ident]bool{}
	escapes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if base := optionsStructOf(info.TypeOf(sel.X)); base == nil || base.Obj() != named.Obj() {
			return true
		}
		if _, seen := read[sel.Sel.Name]; !seen {
			read[sel.Sel.Name] = sel
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			selectorBases[id] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != param {
			return true
		}
		if !selectorBases[id] {
			escapes = true // the whole value flows somewhere we can't see into
		}
		return true
	})

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		forbidden := strings.Contains(f.Name(), "Deadline") || strings.Contains(f.Name(), "Budget")
		sel, wasRead := read[f.Name()]
		switch {
		case forbidden && (wasRead || escapes):
			pos := fd.Name.Pos()
			if wasRead {
				pos = sel.Pos()
			}
			report(mf, pos, "cachekey", f.Name(), fmt.Sprintf(
				"budget field %s.%s must not reach the cache key built by %s: a deadline changes when an answer arrives, not what it contains, so keying on it fragments the cache",
				named.Obj().Name(), f.Name(), fd.Name.Name))
		case !forbidden && !wasRead && !escapes:
			report(mf, fd.Name.Pos(), "cachekey", f.Name(), fmt.Sprintf(
				"result-affecting field %s.%s is not encoded by %s: differently-optioned evaluations will collide in the cache (the pr=/ts=/sel= rule); encode it or annotate //dwrlint:allow cachekey:%s <why>",
				named.Obj().Name(), f.Name(), fd.Name.Name, f.Name()))
		}
	}
}

// paramUsed reports whether body references the parameter at all.
func paramUsed(body *ast.BlockStmt, info *types.Info, param *types.Var) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == param {
			used = true
		}
		return true
	})
	return used
}
