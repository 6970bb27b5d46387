package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// This file is the analysis substrate: a lazily type-checked view of
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
// type info as "unknown, stay silent". Parse errors are recorded, not
// returned: LintPatterns fails on a selected file that does not parse.

// module is a typed, call-graph-annotated view of one Go module.
type module struct {
	fset     *token.FileSet
	lintRoot string // findings are reported relative to this
	modRoot  string // directory holding go.mod ("" if none found)
	modPath  string // module path from go.mod ("" if none found)

	pkgs   map[string]*modPackage // abs dir -> package view
	parsed map[string]error       // every .go file load read -> its parse error (nil if it parsed)

	std     types.Importer // compiled stdlib export data
	src     types.Importer // source fallback
	stdMemo map[string]*types.Package

	funcs map[*types.Func]*funcFacts // call graph, built by buildFacts
}

// modPackage is one directory's files, parsed once and type-checked.
// files, pkg and info are the production view: the call graph, the
// module-wide analyzers and the repository guards read only that. all
// is files followed by the _test.go files, each of which carries the
// info of its test variant.
type modPackage struct {
	unit    string // directory base name, e.g. "qproc"
	files   []*modFile
	all     []*modFile
	pkg     *types.Package
	info    *types.Info
	loading bool // cycle guard while type-checking imports
}

// modFile is one parsed file, its allow directives, and the type info
// of the package variant that covers it.
type modFile struct {
	abs  string
	ast  *ast.File
	dirs directives
	info *types.Info
	test bool
}

// callSite is one statically resolved call inside a function body.
type callSite struct {
	pos    token.Pos
	callee *types.Func
}

// sinkSite is one direct wall-clock / global-rand reference inside a body.
type sinkSite struct {
	name    string // e.g. "time.Now"
	allowed bool   // suppressed by a //dwrlint:allow at the site
}

// funcFacts is the per-function call-graph node.
type funcFacts struct {
	obj   *types.Func
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
		parsed:   map[string]error{},
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

// load parses every .go file of one directory once and type-checks
// three variants, memoized: the production files, the production files
// with the in-package tests, and the external _test package on its own.
// Failures are dropped, not returned: a package that cannot be loaded
// simply contributes no facts.
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
	var files, tests []*modFile
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments)
		if m.parsed[path] = err; err != nil {
			continue
		}
		mf := &modFile{abs: path, ast: f, dirs: parseDirectives(m.fset, f), test: strings.HasSuffix(path, "_test.go")}
		if mf.test {
			tests = append(tests, mf)
		} else {
			files = append(files, mf)
		}
	}
	// A directory can legitimately mix package names (fixtures, main
	// vs. tool files); keep the first-seen package, skip the rest.
	var name string
	if len(files) > 0 {
		name = files[0].ast.Name.Name
	} else if len(tests) > 0 {
		name = strings.TrimSuffix(tests[0].ast.Name.Name, "_test")
	}
	for _, mf := range files {
		if mf.ast.Name.Name == name {
			p.files = append(p.files, mf)
		}
	}
	var inPkg, xTest []*modFile
	for _, mf := range tests {
		switch mf.ast.Name.Name {
		case name:
			inPkg = append(inPkg, mf)
		case name + "_test":
			xTest = append(xTest, mf)
		}
	}
	p.all = slices.Concat(p.files, inPkg, xTest)

	path := m.importPathOf(dir)
	if len(p.files) > 0 {
		p.loading = true
		p.pkg, p.info = m.check(path, p.files)
		p.loading = false
	}
	if len(inPkg) > 0 {
		m.check(path, p.all[:len(p.files)+len(inPkg)])
	}
	if len(xTest) > 0 {
		m.check(path+"_test", xTest)
	}
	return p
}

// check type-checks files as one package and hands the info to every
// file that has none yet, so a production file keeps the production
// view's info when it is checked again with its package's tests.
func (m *module) check(path string, files []*modFile) (*types.Package, *types.Info) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	asts := make([]*ast.File, len(files))
	for i, mf := range files {
		asts[i] = mf.ast
		if mf.info == nil {
			mf.info = info
		}
	}
	conf := types.Config{
		Importer:                 m,
		Error:                    func(error) {}, // best-effort: collect nothing, keep going
		FakeImportC:              true,
		DisableUnusedImportCheck: true,
	}
	pkg, _ := conf.Check(path, m.fset, asts, info)
	return pkg, info
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

// relOf reports path relative to the lint root, as findings name it.
func (m *module) relOf(abs string) string {
	if rel, err := filepath.Rel(m.lintRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(abs)
}

// buildFacts walks every loaded package's production files and
// records, per declared function, its statically resolvable calls and
// its direct wall-clock/global-rand sink references, called or not.
// Function literals are attributed to the enclosing declaration — a
// sink inside a closure taints the function that builds the closure,
// which is the conservative direction.
func (m *module) buildFacts() {
	m.funcs = map[*types.Func]*funcFacts{}
	for _, p := range m.packages() {
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
				ff := &funcFacts{obj: obj, pkg: p, file: mf}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if callee := calleeOf(p.info, call); callee != nil {
							ff.calls = append(ff.calls, callSite{pos: call.Pos(), callee: callee})
						}
					}
					return true
				})
				eachSink(p.info, fd.Body, func(ref ast.Expr, f *types.Func, rule string) {
					_, allowed := mf.dirs.allowed(rule, m.fset.Position(ref.Pos()).Line)
					ff.sinks = append(ff.sinks, sinkSite{name: f.Pkg().Name() + "." + f.Name(), allowed: allowed})
				})
				m.funcs[obj] = ff
			}
		}
	}
}

// packages returns the loaded packages in directory order, so every
// walk over the module is deterministic.
func (m *module) packages() []*modPackage {
	dirs := make([]string, 0, len(m.pkgs))
	for d := range m.pkgs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	ps := make([]*modPackage, len(dirs))
	for i, d := range dirs {
		ps[i] = m.pkgs[d]
	}
	return ps
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

// pkgFunc returns the package-level function an identifier or a
// qualified identifier (pkg.Func) refers to, or nil. Methods are not
// package-level, so a seeded *rand.Rand's Intn resolves to nil.
func pkgFunc(info *types.Info, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return f
}

// sinkRule classifies a package-level function as a determinism sink:
// "wallclock" for a time function that reads or blocks on the real
// clock, "globalrand" for a math/rand function drawing from the shared
// global source, "" otherwise.
func sinkRule(f *types.Func) string {
	switch {
	case f == nil:
	case f.Pkg().Path() == "time" && wallclockFuncs[f.Name()]:
		return "wallclock"
	case f.Pkg().Path() == "math/rand" && globalRandFuncs[f.Name()]:
		return "globalrand"
	}
	return ""
}

// eachSink calls fn for every reference under n to a sink — called or
// passed as a value, qualified (time.Now) or dot-imported (Now) — with
// the referring expression, so a qualified sink is reported at its
// package name as the reader sees it.
func eachSink(info *types.Info, n ast.Node, fn func(ref ast.Expr, f *types.Func, rule string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		f := pkgFunc(info, e)
		if rule := sinkRule(f); rule != "" {
			fn(e, f, rule)
			return false
		}
		return true
	})
}
