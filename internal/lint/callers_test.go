package lint

import (
	"go/ast"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedKeep names exported functions that stay without a production
// caller, each with the consumer it waits for.
var exportedKeep = map[string]string{
	"index.ReadFile":           "the index file format's loader; ROADMAP item 7's durable segment store is its named consumer (FuzzRead guards Read beneath it)",
	"(*index.Index).WriteFile": "the index file format's writer; ROADMAP item 7's durable segment store is its named consumer",
}

// TestExportedFuncsHaveAProductionCaller type-checks every package of the
// repository — the root module plus bench/, cmd/ and examples/, test
// files excluded — and fails on an exported name under internal/ that no
// non-test file references: a function, a package-level const, var or
// type, a method of an exported type, or a method of an unexported type
// that embedding promotes into an exported one. A method whose receiver
// implements an interface carrying that method is skipped: it is called
// through the interface.
func TestExportedFuncsHaveAProductionCaller(t *testing.T) {
	m := loadRepo(t)
	used := map[types.Object]bool{}
	var ifaces []*types.Named
	for _, p := range m.packages() {
		if p.info == nil {
			continue
		}
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range p.info.Selections {
			used[origin(sel.Obj())] = true
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if named, ok := scope.Lookup(name).Type().(*types.Named); ok && types.IsInterface(named) {
				ifaces = append(ifaces, named)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().(*types.Named))
	for _, std := range []string{"fmt.Stringer", "sort.Interface", "container/heap.Interface", "io.ByteReader", "flag.Value"} {
		path, name, _ := strings.Cut(std, ".")
		pkg, err := m.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(name).Type().(*types.Named))
	}

	internal := m.modPath + "/internal/"
	var unused []string
	kept := map[string]bool{}
	for _, p := range m.packages() {
		if p.info == nil || !strings.HasPrefix(p.pkg.Path()+"/", internal) {
			continue
		}
		check := func(obj types.Object, name string) {
			if _, keep := exportedKeep[name]; keep {
				kept[name] = true
				if used[obj] {
					t.Errorf("%s has a caller now; drop it from exportedKeep", name)
				}
			} else if !used[obj] {
				unused = append(unused, name)
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Const, *types.Var, *types.TypeName:
				if obj.Exported() {
					check(obj, obj.Pkg().Name()+"."+name)
				}
			}
		}
		for _, mf := range p.files {
			for _, decl := range mf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				f, _ := p.info.Defs[fd.Name].(*types.Func)
				if f == nil || (fd.Recv != nil && !exportedRecv(f) && !promotedToExported(f, scope)) || implementsWith(f, ifaces) {
					continue
				}
				check(f, funcName(f))
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: exported, but no program, experiment or benchmark uses it; delete it", name)
	}
	for name := range exportedKeep {
		if !kept[name] {
			t.Errorf("exportedKeep names %s, which no longer exists", name)
		}
	}
}

// loadRepo type-checks the non-test files of every package of the
// repository: the root module plus the nested bench/ module, testdata and
// dot-directories skipped.
func loadRepo(t *testing.T) *module {
	t.Helper()
	m := newModule("../..")
	if m.modRoot == "" {
		t.Fatal("no go.mod above internal/lint")
	}
	err := filepath.WalkDir(m.modRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != m.modRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() {
			m.load(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// origin maps an instantiated function or field to its generic
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// promotedToExported reports whether an exported type of scope reaches
// method f through an embedded field.
func promotedToExported(f *types.Func, scope *types.Scope) bool {
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		obj, index, _ := types.LookupFieldOrMethod(tn.Type(), true, f.Pkg(), f.Name())
		if obj == f && len(index) > 1 {
			return true
		}
	}
	return false
}

// exportedRecv reports whether a method's receiver base type is exported.
func exportedRecv(f *types.Func) bool {
	named := recvNamed(f)
	return named != nil && named.Obj().Exported()
}

func recvNamed(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsWith reports whether f is a method whose receiver type, or a
// pointer to it, implements one of ifaces that declares a method of f's
// name. A generic receiver or a generic interface never matches, since
// go/types cannot answer without instantiating both: a generic type's
// methods need a direct caller.
func implementsWith(f *types.Func, ifaces []*types.Named) bool {
	named := recvNamed(f)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		if iface.TypeParams().Len() > 0 {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, f.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// funcName renders f as pkg.Func or (*pkg.Type).Method / pkg.Type.Method.
func funcName(f *types.Func) string {
	named := recvNamed(f)
	if named == nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	recv := named.Obj().Pkg().Name() + "." + named.Obj().Name()
	if _, ptr := f.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + f.Name()
}
