// Package lint is the dwrlint static-analysis suite: a stdlib-only
// analysis layer over the module that mechanically enforces the
// repository's determinism, accounting, caching, and
// deadline-discipline invariants.
//
// The headline guarantees of this reproduction — byte-identical query
// results at any worker count, replayable fault scenarios, seeded load
// generation — rest on conventions: all randomness flows through
// internal/randx, deterministic packages never read the wall clock,
// fan-out goes through internal/conc's ordered gathers, cache keys
// encode every result-affecting option, gathers fold every counter, and
// serving paths propagate deadlines. One stray time.Now() or dropped
// counter silently breaks the paper-shape experiments, so the
// conventions are machine-checked here rather than reviewed-for.
//
// Analysis runs in two passes. The syntactic pass (go/parser, go/ast)
// inspects each selected file alone. The module pass (go/types)
// type-checks every selected directory — resolving module-internal
// imports straight from parsed source and stdlib imports from compiled
// export data, so no build step is needed — and builds a static call
// graph over everything loaded.
//
// The syntactic analyzers emit four rule ids:
//
//   - determinism: [wallclock] time.Now/Since/Sleep/... and
//     [globalrand] top-level math/rand calls in deterministic packages
//   - deadline-discipline: [deadline] QueryTopK where QueryTopKWithin
//     must be used so deadlines propagate
//   - seed-plumbing: [seed] *rand.Rand values not derived from
//     internal/randx (or an explicit seed in tests)
//
// The module analyzers emit four more:
//
//   - determinism-taint: [taint] a call, inside a deterministic
//     package, of a helper that transitively reaches a wall-clock or
//     global-rand sink through any chain of module functions
//   - cache-key completeness: [cachekey] a *CacheKey function that
//     fails to encode a result-affecting QueryOptions field, encodes a
//     Deadline/Budget field, or ignores a parameter
//   - stats-merge completeness: [statsmerge] an aggregation that folds
//     some counters of a source struct but silently drops another
//   - conc-discipline: [conc] bare go statements, raw make(chan), or
//     select in deterministic packages instead of internal/conc
//
// Intentional exceptions are annotated in the source:
//
//	//dwrlint:allow <rule> <justification>        (this line or the next)
//	//dwrlint:allow <rule>:<detail> <why>         (one field/construct only)
//	//dwrlint:file-allow <rule> <justification>   (whole file)
//
// Allowed sites are suppressed from normal output but remain auditable:
// the Fixlist (cmd/dwrlint -fixlist) prints every suppressed finding
// with its justification, and CI gates on the fixlist not growing
// (cmd/dwrlint -fixgate).
//
// To add an analyzer: implement moduleAnalyzer (or analyzer for purely
// syntactic checks), append it to moduleAnalyzers, pick a new rule id,
// and add a fixture directory under testdata/ with // want markers.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation (or, when Allowed, one audited
// exemption) at a source position.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`

	// Detail qualifies findings of the module analyzers down to a single
	// field or construct (e.g. the dropped counter's name), so one line
	// can carry several findings and directives can suppress exactly one
	// of them: //dwrlint:allow <rule>:<detail> <why>.
	Detail string `json:"detail,omitempty"`

	// Allowed marks a finding suppressed by a //dwrlint:allow or
	// //dwrlint:file-allow directive; Justification is the directive's
	// trailing free text.
	Allowed       bool   `json:"allowed,omitempty"`
	Justification string `json:"justification,omitempty"`
}

// String renders the canonical "file:line: [rule] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Config selects which packages each analyzer applies to.
type Config struct {
	// Deterministic is the set of package units (directory base names)
	// whose results must be a pure function of their seeds. The
	// determinism and seed-plumbing analyzers only fire inside these.
	Deterministic map[string]bool

	// DeadlineUnits is the set of units whose query call sites must
	// propagate deadlines (the serving paths).
	DeadlineUnits map[string]bool
}

// DefaultConfig returns the repository's invariant configuration.
func DefaultConfig() Config {
	det := map[string]bool{}
	for _, p := range []string{
		"simweb", "faultsim", "index", "qproc", "rank", "crawler",
		"queueing", "loadgen", "cache", "chash", "partition",
		"selection", "replication", "experiments",
	} {
		det[p] = true
	}
	return Config{
		Deterministic: det,
		DeadlineUnits: map[string]bool{"server": true, "dwrserve": true},
	}
}

// fileCtx is one parsed file plus the lookups analyzers need.
type fileCtx struct {
	fset   *token.FileSet
	file   *ast.File
	path   string // as reported in findings
	unit   string // directory base name, e.g. "qproc"
	isTest bool
}

// importName returns the local identifier under which the file imports
// importPath ("" if not imported, or imported as _ or .).
func (fc *fileCtx) importName(importPath string) string {
	for _, imp := range fc.file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		base := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			base = p[i+1:]
		}
		return base
	}
	return ""
}

// isPkgSel reports whether expr is a selector pkg.name where pkg is the
// file's local name for an imported package (not a shadowing variable).
func isPkgSel(expr ast.Expr, pkgName, name string) bool {
	if pkgName == "" {
		return false
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkgName && id.Obj == nil
}

// directives holds a file's dwrlint allow annotations.
type directives struct {
	fileAllow map[string]string         // rule -> justification
	lineAllow map[int]map[string]string // line -> rule -> justification
}

const (
	allowPrefix     = "//dwrlint:allow"
	fileAllowPrefix = "//dwrlint:file-allow"
)

// parseDirectives scans every comment in the file. A line directive
// covers its own source line and the line immediately below it, so both
// trailing comments and a directive line above the flagged statement
// work.
func parseDirectives(fset *token.FileSet, f *ast.File) directives {
	d := directives{
		fileAllow: map[string]string{},
		lineAllow: map[int]map[string]string{},
	}
	record := func(line int, rule, why string) {
		if d.lineAllow[line] == nil {
			d.lineAllow[line] = map[string]string{}
		}
		d.lineAllow[line][rule] = why
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			switch {
			case strings.HasPrefix(text, fileAllowPrefix):
				rule, why := splitDirective(text[len(fileAllowPrefix):])
				if rule != "" {
					d.fileAllow[rule] = why
				}
			case strings.HasPrefix(text, allowPrefix):
				rule, why := splitDirective(text[len(allowPrefix):])
				if rule != "" {
					record(fset.Position(c.Pos()).Line, rule, why)
				}
			}
		}
	}
	return d
}

// splitDirective parses " <rule> <justification...>".
func splitDirective(rest string) (rule, why string) {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i:])
	}
	return rest, ""
}

// allowedDetail resolves a detail-qualified finding: the exact
// "rule:detail" directive wins, then the bare rule form (which covers
// every detail at the site).
func (d directives) allowedDetail(rule, detail string, line int) (string, bool) {
	if detail != "" {
		if why, ok := d.allowed(rule+":"+detail, line); ok {
			return why, true
		}
	}
	return d.allowed(rule, line)
}

// allowed reports whether a finding for rule at line is exempted, and
// with what justification.
func (d directives) allowed(rule string, line int) (string, bool) {
	if why, ok := d.fileAllow[rule]; ok {
		if why == "" {
			why = "(file-allow, no justification)"
		}
		return why, true
	}
	for _, l := range [2]int{line, line - 1} {
		if m, ok := d.lineAllow[l]; ok {
			if why, ok := m[rule]; ok {
				if why == "" {
					why = "(no justification)"
				}
				return why, true
			}
		}
	}
	return "", false
}

// analyzer inspects one file and reports findings.
type analyzer func(fc *fileCtx, cfg Config, report func(pos token.Pos, rule, msg string))

// analyzers is the per-file suite, in reporting order.
var analyzers = []analyzer{
	analyzeDeterminism,
	analyzeDeadline,
	analyzeSeedPlumbing,
}

// moduleReport is how a module analyzer emits one finding: the file it
// lives in, its position, and an optional detail (the exact field or
// construct) for per-field directive suppression.
type moduleReport func(mf *modFile, pos token.Pos, rule, detail, msg string)

// moduleAnalyzer inspects the type-checked module view built over the
// selected directories (plus everything they transitively import).
type moduleAnalyzer func(m *module, cfg Config, report moduleReport)

// moduleAnalyzers is the type-aware suite, in reporting order.
var moduleAnalyzers = []moduleAnalyzer{
	analyzeTaintModule,
	analyzeCacheKeyModule,
	analyzeStatsMergeModule,
	analyzeConcModule,
}

// LintFile runs every analyzer over one parsed file and returns all
// findings, with directive-exempted ones marked Allowed.
func lintFile(fc *fileCtx, cfg Config) []Finding {
	dirs := parseDirectives(fc.fset, fc.file)
	seen := map[string]bool{}
	var out []Finding
	for _, an := range analyzers {
		an(fc, cfg, func(pos token.Pos, rule, msg string) {
			p := fc.fset.Position(pos)
			key := fmt.Sprintf("%d:%d:%s", p.Line, p.Column, rule)
			if seen[key] {
				return
			}
			seen[key] = true
			f := Finding{File: fc.path, Line: p.Line, Col: p.Column, Rule: rule, Msg: msg}
			if why, ok := dirs.allowed(rule, p.Line); ok {
				f.Allowed = true
				f.Justification = why
			}
			out = append(out, f)
		})
	}
	return out
}

// LintPatterns lints the files selected by patterns, resolved relative
// to root. Three pattern forms are supported, mirroring the go tool:
//
//	dir/...   every package directory under dir (testdata, vendor, and
//	          dot-directories are skipped, as the go tool does)
//	dir       the .go files directly in dir (testdata dirs may be
//	          named explicitly this way)
//	file.go   a single file
//
// File paths in findings are reported relative to root where possible.
func LintPatterns(root string, patterns []string, cfg Config) ([]Finding, error) {
	var files []string
	for _, pat := range patterns {
		fs, err := expandPattern(root, pat)
		if err != nil {
			return nil, err
		}
		files = append(files, fs...)
	}
	sort.Strings(files)
	var out []Finding
	fset := token.NewFileSet()
	for i, path := range files {
		if i > 0 && files[i-1] == path {
			continue // pattern overlap
		}
		src, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		rel := path
		if r, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		fc := &fileCtx{
			fset:   fset,
			file:   src,
			path:   filepath.ToSlash(rel),
			unit:   filepath.Base(filepath.Dir(path)),
			isTest: strings.HasSuffix(path, "_test.go"),
		}
		out = append(out, lintFile(fc, cfg)...)
	}
	out = append(out, lintModule(root, files, cfg)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Detail < b.Detail
	})
	return out, nil
}

// lintModule runs the type-aware module analyzers over the selected
// files: their directories are parsed and type-checked (transitive
// module-internal imports load on demand), a call graph is built, and
// findings are filtered back down to the selected non-test files.
// Everything is best-effort — files that fail to type-check contribute
// partial facts, never an error.
func lintModule(root string, files []string, cfg Config) []Finding {
	mod := newModule(root)
	selected := map[string]bool{}
	dirSet := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			continue
		}
		selected[abs] = true
		dirSet[filepath.Dir(abs)] = true
	}
	if len(dirSet) == 0 {
		return nil
	}
	var dirs []string
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		mod.load(d)
	}
	mod.buildFacts()

	var out []Finding
	seen := map[string]bool{}
	report := func(mf *modFile, pos token.Pos, rule, detail, msg string) {
		if mf == nil || !selected[mf.abs] {
			return
		}
		p := mod.fset.Position(pos)
		key := fmt.Sprintf("%s:%d:%d:%s:%s", mf.abs, p.Line, p.Column, rule, detail)
		if seen[key] {
			return
		}
		seen[key] = true
		f := Finding{File: mod.relOf(mf.abs), Line: p.Line, Col: p.Column, Rule: rule, Detail: detail, Msg: msg}
		if why, ok := mf.dirs.allowedDetail(rule, detail, p.Line); ok {
			f.Allowed = true
			f.Justification = why
		}
		out = append(out, f)
	}
	for _, an := range moduleAnalyzers {
		an(mod, cfg, report)
	}
	return out
}

// expandPattern resolves one CLI pattern to .go file paths.
func expandPattern(root, pat string) ([]string, error) {
	pat = filepath.FromSlash(pat)
	join := func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(root, p)
	}
	if strings.HasSuffix(pat, "...") {
		base := join(strings.TrimSuffix(strings.TrimSuffix(pat, "..."), string(filepath.Separator)))
		if base == "" {
			base = root
		}
		return walkGoFiles(base)
	}
	full := join(pat)
	info, err := os.Stat(full)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{full}, nil
	}
	return dirGoFiles(full)
}

// walkGoFiles collects .go files under base, skipping the directories
// the go tool skips (testdata, vendor, dot- and underscore-prefixed).
func walkGoFiles(base string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// dirGoFiles lists the .go files directly inside dir.
func dirGoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// Violations filters findings to the ones not exempted by a directive.
func Violations(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if !f.Allowed {
			out = append(out, f)
		}
	}
	return out
}

// Fixlist filters findings to the directive-exempted sites, the
// auditable exemption surface.
func Fixlist(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Allowed {
			out = append(out, f)
		}
	}
	return out
}
