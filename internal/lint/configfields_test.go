package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// configSuffixes are the type-name endings that mark a struct as a
// configuration: every exported field of one is a knob.
var configSuffixes = []string{"Config", "Policy", "Model", "Params"}

// TestConfigFieldsAreSetOutsideTheirPackage type-checks every package of
// the repository (tests excluded) and fails on an exported field of an
// exported config struct under internal/ that no file outside the
// struct's own package sets. A field counts as set where such a file
// assigns it through a selector (=, op=, ++/--, or &x.F handed to a flag
// binder) or builds a literal of the struct: a key names it, and a
// literal that omits it sets it to zero. A field nothing sets has one
// value in use, and that value belongs in a constant.
func TestConfigFieldsAreSetOutsideTheirPackage(t *testing.T) {
	m := loadRepo(t)
	internal := m.modPath + "/internal/"

	// owner maps each in-scope field to the struct that declares it.
	owner := map[*types.Var]*types.TypeName{}
	for _, p := range m.packages() {
		if p.pkg == nil || !strings.HasPrefix(p.pkg.Path()+"/", internal) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isConfigName(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f] = tn
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	for _, p := range m.packages() {
		if p.info == nil {
			continue
		}
		outside := func(f *types.Var) bool {
			tn, ok := owner[f]
			return ok && tn.Pkg() != p.pkg
		}
		markSel := func(e ast.Expr) {
			if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					if f, ok := s.Obj().(*types.Var); ok && outside(f) {
						set[f] = true
					}
				}
			}
		}
		for _, mf := range p.files {
			ast.Inspect(mf.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSel(lhs)
					}
				case *ast.IncDecStmt:
					markSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSel(n.X)
					}
				case *ast.CompositeLit:
					tv, ok := p.info.Types[n]
					if !ok {
						break
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); outside(f) {
							set[f] = true
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, tn := range owner {
		if !set[f] {
			unset = append(unset, tn.Pkg().Name()+"."+tn.Name()+"."+f.Name())
		}
	}
	sort.Strings(unset)
	t.Logf("config-struct fields under internal/: %d", len(owner))
	for _, name := range unset {
		t.Errorf("%s: no program, experiment, example or benchmark sets it away from its package's value; make it a constant", name)
	}
}

func isConfigName(name string) bool {
	for _, suf := range configSuffixes {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}
