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
// files excluded — and fails on an exported function, or an exported
// method of an exported type, under internal/ that no non-test file
// references. A method whose receiver implements an interface carrying
// that method is skipped: it is called through the interface.
func TestExportedFuncsHaveAProductionCaller(t *testing.T) {
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

	used := map[*types.Func]bool{}
	var ifaces []*types.Named
	for _, dir := range m.sortedDirs() {
		p := m.pkgs[dir]
		if p.info == nil {
			continue
		}
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
		for _, sel := range p.info.Selections {
			if f, ok := sel.Obj().(*types.Func); ok {
				used[f.Origin()] = true
			}
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

	internal := filepath.Join(m.modRoot, "internal") + string(filepath.Separator)
	var unused []string
	kept := map[string]bool{}
	for _, dir := range m.sortedDirs() {
		p := m.pkgs[dir]
		if p.info == nil || !strings.HasPrefix(dir+string(filepath.Separator), internal) {
			continue
		}
		for _, mf := range p.files {
			for _, decl := range mf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				f, _ := p.info.Defs[fd.Name].(*types.Func)
				if f == nil || (fd.Recv != nil && !exportedRecv(f)) || implementsWith(f, ifaces) {
					continue
				}
				name := funcName(f)
				if _, keep := exportedKeep[name]; keep {
					kept[name] = true
					if used[f] {
						t.Errorf("%s has a caller now; drop it from exportedKeep", name)
					}
				} else if !used[f] {
					unused = append(unused, name)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: exported, but no program, experiment or benchmark calls it; delete it", name)
	}
	for name := range exportedKeep {
		if !kept[name] {
			t.Errorf("exportedKeep names %s, which no longer exists", name)
		}
	}
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
// name. Where the receiver or the interface is generic (cache.LRU against
// cache.Cache), go/types cannot answer without instantiating both, so the
// receiver need only declare every method name the interface has.
func implementsWith(f *types.Func, ifaces []*types.Named) bool {
	named := recvNamed(f)
	if named == nil {
		return false
	}
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, f.Name()); obj == nil {
			continue
		}
		if named.TypeParams().Len() > 0 || iface.TypeParams().Len() > 0 {
			if declaresAll(named, it) {
				return true
			}
		} else if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// declaresAll reports whether named declares a method of every name in it.
func declaresAll(named *types.Named, it *types.Interface) bool {
	have := map[string]bool{}
	for i := 0; i < named.NumMethods(); i++ {
		have[named.Method(i).Name()] = true
	}
	for i := 0; i < it.NumMethods(); i++ {
		if !have[it.Method(i).Name()] {
			return false
		}
	}
	return true
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
