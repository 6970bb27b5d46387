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
// Analysis is one pass over a typed view of the module. Every selected
// directory is parsed once and type-checked — module-internal imports
// resolved straight from parsed source, stdlib imports from compiled
// export data, so no build step is needed — as its production package,
// its in-package test variant and its external _test package. A static
// call graph is built over the production files of everything loaded,
// and every rule reads the same view. A sink is any identifier that
// resolves to a wall-clock function of time or a global math/rand
// function, called or passed as a value, however the file imports it.
//
// Eight rule ids:
//
//   - determinism: [wallclock] time.Now/Since/Sleep/... and
//     [globalrand] top-level math/rand references in deterministic
//     packages, test files included
//   - deadline-discipline: [deadline] QueryTopK where QueryTopKWithin
//     must be used so deadlines propagate (non-test files)
//   - seed-plumbing: [seed] *rand.Rand values not derived from
//     internal/randx (or an explicit seed in tests)
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
// The last four read only the production files.
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
// To add an analyzer: implement moduleAnalyzer, append it to
// moduleAnalyzers, pick a new rule id, and add a fixture directory
// under testdata/ with // want markers.
package lint

import (
	"fmt"
	"go/ast"
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

	// Detail qualifies a finding down to a single field or construct
	// (e.g. the dropped counter's name), so one line can carry several
	// findings and directives can suppress exactly one of them:
	// //dwrlint:allow <rule>:<detail> <why>.
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

// deterministic is the set of package units (directory base names)
// whose results must be a pure function of their seeds. The determinism,
// seed-plumbing, taint and conc analyzers only fire inside these.
var deterministic = map[string]bool{
	"simweb": true, "faultsim": true, "index": true, "qproc": true, "rank": true, "crawler": true,
	"queueing": true, "loadgen": true, "cache": true, "chash": true, "partition": true,
	"selection": true, "replication": true, "experiments": true,
}

// deadlineUnits is the set of units whose query call sites must
// propagate deadlines (the serving paths).
var deadlineUnits = map[string]bool{"server": true, "dwrserve": true}

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

// moduleReport is how a module analyzer emits one finding: the file it
// lives in, its position, and an optional detail (the exact field or
// construct) for per-field directive suppression.
type moduleReport func(mf *modFile, pos token.Pos, rule, detail, msg string)

// moduleAnalyzer inspects the type-checked module view built over the
// selected directories (plus everything they transitively import);
// findings outside the selected files are dropped.
type moduleAnalyzer func(m *module, report moduleReport)

// moduleAnalyzers is the suite, in reporting order.
var moduleAnalyzers = []moduleAnalyzer{
	analyzeDeterminism,
	analyzeDeadline,
	analyzeSeedPlumbing,
	analyzeTaintModule,
	analyzeCacheKeyModule,
	analyzeStatsMergeModule,
	analyzeConcModule,
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
// Each selected directory is parsed and type-checked once; a selected
// file that does not parse is an error. File paths in findings are
// reported relative to root where possible.
func LintPatterns(root string, patterns []string) ([]Finding, error) {
	selected := map[string]bool{}
	var files []string
	for _, pat := range patterns {
		fs, err := expandPattern(root, pat)
		if err != nil {
			return nil, err
		}
		for _, path := range fs {
			abs, err := filepath.Abs(path)
			if err != nil {
				return nil, err
			}
			if !selected[abs] { // pattern overlap
				selected[abs] = true
				files = append(files, abs)
			}
		}
	}
	sort.Strings(files)
	m := newModule(root)
	for _, abs := range files {
		m.load(filepath.Dir(abs))
	}
	for _, abs := range files {
		if err, ok := m.parsed[abs]; !ok {
			return nil, fmt.Errorf("%s: not a .go file", abs)
		} else if err != nil {
			return nil, err
		}
	}
	m.buildFacts()

	var out []Finding
	seen := map[string]bool{}
	report := func(mf *modFile, pos token.Pos, rule, detail, msg string) {
		if mf == nil || !selected[mf.abs] {
			return
		}
		p := m.fset.Position(pos)
		key := fmt.Sprintf("%s:%d:%d:%s:%s", mf.abs, p.Line, p.Column, rule, detail)
		if seen[key] {
			return
		}
		seen[key] = true
		f := Finding{File: m.relOf(mf.abs), Line: p.Line, Col: p.Column, Rule: rule, Detail: detail, Msg: msg}
		if why, ok := mf.dirs.allowedDetail(rule, detail, p.Line); ok {
			f.Allowed = true
			f.Justification = why
		}
		out = append(out, f)
	}
	for _, an := range moduleAnalyzers {
		an(m, report)
	}
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
