package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the v2 analysis substrate: a lazily type-checked view of
// the module the linted files belong to, plus a static call graph over
// every function the view has loaded. It is stdlib-only — module-internal
// import paths are resolved straight from the already-parsed ASTs, and
// standard-library paths go through importer.Default() (compiled export
// data) with a source importer as fallback — so the linter needs neither
// go/packages nor a build step.
//
// Everything here is best-effort by design: fixture trees and
// mid-refactor code rarely type-check cleanly, and a lint run must
// degrade to "fewer facts, fewer findings" rather than erroring out. The
// type checker runs with an error collector, and analyzers treat missing
// type info as "unknown, stay silent".

// module is a typed, call-graph-annotated view of one Go module.
type module struct {
	fset     *token.FileSet
	lintRoot string // findings are reported relative to this
	modRoot  string // directory holding go.mod ("" if none found)
	modPath  string // module path from go.mod ("" if none found)

	pkgs map[string]*modPackage // abs dir -> package view

	std     types.Importer // compiled stdlib export data
	src     types.Importer // source fallback
	stdMemo map[string]*types.Package

	funcs map[*types.Func]*funcFacts // call graph, built by buildFacts
}

// modPackage is one directory's non-test files, parsed and type-checked.
type modPackage struct {
	unit    string // directory base name, e.g. "qproc"
	files   []*modFile
	pkg     *types.Package
	info    *types.Info
	loading bool // cycle guard while type-checking imports
}

// modFile is one parsed non-test file plus its allow directives.
type modFile struct {
	abs  string
	ast  *ast.File
	dirs directives
}

// callSite is one statically resolved call inside a function body.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// sinkSite is one direct wall-clock / global-rand call inside a body.
type sinkSite struct {
	rule    string // "wallclock" or "globalrand"
	name    string // e.g. "time.Now"
	allowed bool   // suppressed by a //dwrlint:allow at the site
}

// funcFacts is the per-function call-graph node.
type funcFacts struct {
	obj   *types.Func
	decl  *ast.FuncDecl
	pkg   *modPackage
	file  *modFile
	calls []callSite
	sinks []sinkSite
}

// newModule builds the (empty) module view for files under lintRoot. The
// enclosing go.mod is found by walking upward; without one, only stdlib
// imports resolve and module-internal calls stay opaque.
func newModule(lintRoot string) *module {
	abs, err := filepath.Abs(lintRoot)
	if err != nil {
		abs = lintRoot
	}
	m := &module{
		fset:     token.NewFileSet(),
		lintRoot: abs,
		pkgs:     map[string]*modPackage{},
		std:      importer.Default(),
		stdMemo:  map[string]*types.Package{},
	}
	m.src = importer.ForCompiler(m.fset, "source", nil)
	for dir := abs; ; {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			m.modRoot = dir
			m.modPath = modulePath(string(data))
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			break
		}
		dir = parent
	}
	return m
}

// modulePath extracts the module path from go.mod text.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// load parses and type-checks the non-test files of one directory,
// memoized. Failures are dropped, not returned: a package that cannot
// be loaded simply contributes no facts.
func (m *module) load(dir string) *modPackage {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	if p, ok := m.pkgs[dir]; ok {
		return p
	}
	p := &modPackage{unit: filepath.Base(dir)}
	m.pkgs[dir] = p

	ents, err := os.ReadDir(dir)
	if err != nil {
		return p
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var asts []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			continue
		}
		// A directory can legitimately mix package names (fixtures, main
		// vs. tool files); keep the first-seen package, skip the rest.
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			continue
		}
		mf := &modFile{abs: filepath.Join(dir, n), ast: f}
		mf.dirs = parseDirectives(m.fset, f)
		asts = append(asts, f)
		p.files = append(p.files, mf)
	}
	if len(asts) == 0 {
		return p
	}

	p.loading = true
	defer func() { p.loading = false }()
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:                 m,
		Error:                    func(error) {}, // best-effort: collect nothing, keep going
		FakeImportC:              true,
		DisableUnusedImportCheck: true,
	}
	p.pkg, _ = conf.Check(m.importPathOf(dir), m.fset, asts, info)
	p.info = info
	return p
}

// importPathOf maps an absolute directory to its import path within the
// module (best-effort; only used as the type-checked package's path).
func (m *module) importPathOf(dir string) string {
	if m.modRoot != "" {
		if rel, err := filepath.Rel(m.modRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				return m.modPath
			}
			return m.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(dir)
}

// Import implements types.Importer: module-internal paths are resolved
// from parsed source, everything else from stdlib export data (with a
// source-importer fallback).
func (m *module) Import(path string) (*types.Package, error) {
	if m.modPath != "" && (path == m.modPath || strings.HasPrefix(path, m.modPath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
		dir := filepath.Join(m.modRoot, filepath.FromSlash(rel))
		p := m.load(dir)
		if p.loading && p.pkg == nil {
			return nil, &importError{path: path, reason: "import cycle"}
		}
		if p.pkg == nil {
			return nil, &importError{path: path, reason: "could not load package"}
		}
		return p.pkg, nil
	}
	if pkg, ok := m.stdMemo[path]; ok {
		if pkg == nil {
			return nil, &importError{path: path, reason: "unresolvable import"}
		}
		return pkg, nil
	}
	pkg, err := m.std.Import(path)
	if err != nil && m.src != nil {
		pkg, err = m.src.Import(path)
	}
	if err != nil {
		m.stdMemo[path] = nil
		return nil, err
	}
	m.stdMemo[path] = pkg
	return pkg, nil
}

type importError struct{ path, reason string }

func (e *importError) Error() string { return e.reason + ": " + e.path }

// relOf reports path relative to the lint root, matching the per-file
// pass's finding paths.
func (m *module) relOf(abs string) string {
	if rel, err := filepath.Rel(m.lintRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// buildFacts walks every loaded package and records, per declared
// function, its statically resolvable calls and its direct
// wall-clock/global-rand sinks. Function literals are attributed to the
// enclosing declaration — a sink inside a closure taints the function
// that builds the closure, which is the conservative direction.
func (m *module) buildFacts() {
	m.funcs = map[*types.Func]*funcFacts{}
	for _, dir := range m.sortedDirs() {
		p := m.pkgs[dir]
		if p.info == nil {
			continue
		}
		for _, mf := range p.files {
			for _, decl := range mf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				ff := &funcFacts{obj: obj, decl: fd, pkg: p, file: mf}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeOf(p.info, call)
					if callee == nil {
						return true
					}
					ff.calls = append(ff.calls, callSite{pos: call.Pos(), callee: callee})
					if rule, name, ok := sinkCall(callee); ok {
						line := m.fset.Position(call.Pos()).Line
						_, allowed := mf.dirs.allowed(rule, line)
						ff.sinks = append(ff.sinks, sinkSite{rule: rule, name: name, allowed: allowed})
					}
					return true
				})
				m.funcs[obj] = ff
			}
		}
	}
}

// sortedDirs returns the loaded package directories in a fixed order so
// every walk over the module is deterministic.
func (m *module) sortedDirs() []string {
	dirs := make([]string, 0, len(m.pkgs))
	for d := range m.pkgs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// calleeOf statically resolves a call expression's target function:
// package-level calls, method calls on concrete receivers, and
// pkg-qualified calls. Interface dispatch and function values resolve to
// nil (unknown), which analyzers treat as "no edge".
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // pkg.Func
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// sinkCall classifies a resolved callee as a determinism sink: a
// package-level function of time that reads or blocks on the real clock,
// or a package-level math/rand function drawing from the shared global
// source. Methods (e.g. a seeded *rand.Rand's Intn) are not sinks.
func sinkCall(f *types.Func) (rule, name string, ok bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", "", false
	}
	if sig, _ := f.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return "", "", false
	}
	switch pkg.Path() {
	case "time":
		if wallclockFuncs[f.Name()] {
			return "wallclock", "time." + f.Name(), true
		}
	case "math/rand":
		if globalRandFuncs[f.Name()] {
			return "globalrand", "rand." + f.Name(), true
		}
	}
	return "", "", false
}
