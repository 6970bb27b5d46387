package lint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// expectation is one finding a fixture announces with a trailing
// "// want <rule> [<rule>...]" marker.
type expectation struct {
	File string
	Line int
	Rule string
}

// readExpectations scans every fixture file in dir for want markers.
func readExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			for _, rule := range strings.Fields(text[i+len("// want "):]) {
				out = append(out, expectation{File: filepath.ToSlash(path), Line: line, Rule: rule})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	sortExpectations(out)
	return out
}

func sortExpectations(es []expectation) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
}

// TestAnalyzersOnFixtures is the table-driven acceptance test: each
// fixture directory exercises one analyzer (plus overlaps), and the
// violations must match the want markers exactly — no misses, no false
// positives.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name string
		dir  string
	}{
		{"determinism", "testdata/simweb"},
		{"determinism-evaluator", "testdata/rank"},
		{"determinism-waves", "testdata/qproc"},
		{"determinism-file-allow", "testdata/experiments"},
		{"deadline-server", "testdata/server"},
		{"deadline-dwrserve", "testdata/dwrserve"},
		{"seed-plumbing", "testdata/index"},
		{"taint", "testdata/taint/crawler"},
		{"cachekey", "testdata/cachekey"},
		{"statsmerge", "testdata/statsmerge"},
		{"conc-discipline", "testdata/concfix/queueing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			findings, err := LintPatterns(".", []string{tc.dir})
			if err != nil {
				t.Fatal(err)
			}
			var got []expectation
			for _, f := range Violations(findings) {
				got = append(got, expectation{File: f.File, Line: f.Line, Rule: f.Rule})
			}
			sortExpectations(got)
			want := readExpectations(t, tc.dir)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings diverge from fixture markers\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}

// TestFindingsAreNonEmptyOnFixtures pins the CLI contract that the
// fixture tree as a whole trips every rule id at least once.
func TestFindingsAreNonEmptyOnFixtures(t *testing.T) {
	findings, err := LintPatterns(".", []string{
		"testdata/simweb", "testdata/experiments",
		"testdata/server", "testdata/dwrserve", "testdata/index",
		"testdata/rank", "testdata/qproc",
		"testdata/taint/crawler", "testdata/cachekey",
		"testdata/statsmerge", "testdata/concfix/queueing",
	})
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]int{}
	for _, f := range Violations(findings) {
		rules[f.Rule]++
	}
	for _, rule := range []string{
		"wallclock", "globalrand", "deadline", "seed",
		"taint", "cachekey", "statsmerge", "conc",
	} {
		if rules[rule] == 0 {
			t.Errorf("fixtures never tripped rule %q (got %v)", rule, rules)
		}
	}
}

// TestFixlist audits the exemption surface of the fixtures: every
// //dwrlint:allow'd site appears with its justification, and nothing
// allowed leaks into the violation list.
func TestFixlist(t *testing.T) {
	findings, err := LintPatterns(".", []string{
		"testdata/simweb", "testdata/experiments",
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := Fixlist(findings)
	byFile := map[string]int{}
	for _, f := range allowed {
		if f.Justification == "" {
			t.Errorf("%s:%d allowed without justification text", f.File, f.Line)
		}
		byFile[f.File]++
	}
	want := map[string]int{
		"testdata/simweb/allowed.go":        2, // trailing + preceding-line allow
		"testdata/experiments/fileallow.go": 3, // file-allow covers Now, Since, Now
	}
	for file, n := range want {
		if byFile[file] != n {
			t.Errorf("%s: %d allowed sites, want %d (all: %v)", file, byFile[file], n, allowed)
		}
	}
	var justifications []string
	for _, f := range allowed {
		justifications = append(justifications, f.Justification)
	}
	if !contains(justifications, "reporting-only timestamp") {
		t.Errorf("trailing-allow justification lost: %v", justifications)
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// TestRepoIsClean lints the whole module with the real configuration:
// the tree must have zero non-exempted findings, and the audited
// exemptions must be exactly the four below. This is the in-process
// twin of the CI `dwrlint ./...` and `-fixgate 4` gates, and it is
// stricter than the gate: an analyzer that stops firing on an exempted
// site shrinks the list and fails here.
func TestRepoIsClean(t *testing.T) {
	findings, err := LintPatterns("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Violations(findings) {
		t.Errorf("%s", f)
	}
	const (
		dynamic = "measures real search latency under concurrent updates; ranked results stay deterministic"
		build   = "build-time measurement for the C14 table; the built indexes are compared byte-identically"
	)
	want := []string{
		"internal/experiments/claims_dynamic.go [wallclock] " + dynamic,
		"internal/experiments/claims_dynamic.go [wallclock] " + dynamic,
		"internal/experiments/claims_index.go [wallclock] " + build,
		"internal/experiments/claims_index.go [wallclock] " + build,
	}
	var got []string
	for _, f := range Fixlist(findings) {
		got = append(got, fmt.Sprintf("%s [%s] %s", f.File, f.Rule, f.Justification))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exemptions drifted\ngot:  %q\nwant: %q", got, want)
	}
}

// writeTempModule materializes a throwaway module for mutation tests
// and lints it whole, returning the violations.
func lintTempModule(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := LintPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return Violations(findings)
}

// cacheKeySrc mirrors the shape of the real DocCacheKey: one pr=/ts=
// component per line so a mutation can delete exactly one.
const cacheKeySrc = `package qproc

import "fmt"

type DocQueryOptions struct {
	K          int
	Pruning    int
	Threshold  int
	DeadlineMs float64
}

func DocCacheKey(terms string, opt DocQueryOptions) string {
	key := fmt.Sprintf("%s|k=%d", terms, opt.K)
	key += fmt.Sprintf("|pr=%d", opt.Pruning)
	key += fmt.Sprintf("|ts=%d", opt.Threshold)
	return key
}
`

// TestMutationCacheKey is the acceptance check for the cachekey rule:
// the mirrored DocCacheKey is clean as written, and deleting any single
// pr=/ts= component line makes the linter fail with that exact field.
func TestMutationCacheKey(t *testing.T) {
	if got := lintTempModule(t, map[string]string{"qproc/key.go": cacheKeySrc}); len(got) != 0 {
		t.Fatalf("unmutated cache key flagged: %v", got)
	}
	for _, mut := range []struct{ line, field string }{
		{"\tkey += fmt.Sprintf(\"|pr=%d\", opt.Pruning)\n", "Pruning"},
		{"\tkey += fmt.Sprintf(\"|ts=%d\", opt.Threshold)\n", "Threshold"},
	} {
		if !strings.Contains(cacheKeySrc, mut.line) {
			t.Fatalf("mutation line drifted from source: %q", mut.line)
		}
		src := strings.Replace(cacheKeySrc, mut.line, "", 1)
		got := lintTempModule(t, map[string]string{"qproc/key.go": src})
		found := false
		for _, f := range got {
			if f.Rule == "cachekey" && f.Detail == mut.field {
				found = true
			}
		}
		if !found {
			t.Errorf("deleting the %s component produced no cachekey finding (got %v)", mut.field, got)
		}
	}
}

// statsMergeSrc mirrors the multi-site EngineStats gather: an aggregate
// object folding every counter of the per-site struct.
const statsMergeSrc = `package qproc

type evalStats struct {
	Decoded int
	Lists   int
	Bytes   int64
}

type totals struct {
	Decoded int
	Lists   int
	Bytes   int64
}

func (t *totals) fold(parts []evalStats) {
	for _, es := range parts {
		t.Decoded += es.Decoded
		t.Lists += es.Lists
		t.Bytes += es.Bytes
	}
}
`

// TestMutationStatsMerge is the acceptance check for the statsmerge
// rule: the complete fold is clean, and deleting any single counter
// fold makes the linter fail naming the dropped field.
func TestMutationStatsMerge(t *testing.T) {
	if got := lintTempModule(t, map[string]string{"qproc/merge.go": statsMergeSrc}); len(got) != 0 {
		t.Fatalf("unmutated merge flagged: %v", got)
	}
	for _, mut := range []struct{ line, field string }{
		{"\t\tt.Decoded += es.Decoded\n", "Decoded"},
		{"\t\tt.Lists += es.Lists\n", "Lists"},
		{"\t\tt.Bytes += es.Bytes\n", "Bytes"},
	} {
		if !strings.Contains(statsMergeSrc, mut.line) {
			t.Fatalf("mutation line drifted from source: %q", mut.line)
		}
		src := strings.Replace(statsMergeSrc, mut.line, "", 1)
		got := lintTempModule(t, map[string]string{"qproc/merge.go": src})
		found := false
		for _, f := range got {
			if f.Rule == "statsmerge" && f.Detail == mut.field {
				found = true
			}
		}
		if !found {
			t.Errorf("deleting the %s fold produced no statsmerge finding (got %v)", mut.field, got)
		}
	}
}

// TestDirectiveParsing covers the directive micro-syntax.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		in        string
		rule, why string
	}{
		{"wallclock timing only", "wallclock", "timing only"},
		{"  seed  ", "seed", ""},
		{"deadline", "deadline", ""},
		{"", "", ""},
	}
	for _, tc := range cases {
		rule, why := splitDirective(tc.in)
		if rule != tc.rule || why != tc.why {
			t.Errorf("splitDirective(%q) = (%q, %q), want (%q, %q)", tc.in, rule, why, tc.rule, tc.why)
		}
	}
}

// TestFindingJSON pins the machine-readable shape -json emits.
func TestFindingJSON(t *testing.T) {
	f := Finding{File: "a/b.go", Line: 3, Col: 9, Rule: "wallclock", Msg: "m"}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	want := `{"file":"a/b.go","line":3,"col":9,"rule":"wallclock","msg":"m"}`
	if got != want {
		t.Errorf("JSON shape drifted:\ngot  %s\nwant %s", got, want)
	}
	var back Finding
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Errorf("round-trip diverged: %+v", back)
	}
}

// TestPatternForms covers the three CLI pattern shapes against the
// fixture tree.
func TestPatternForms(t *testing.T) {
	// Recursive pattern from the package root skips testdata entirely.
	findings, err := LintPatterns(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if strings.Contains(f.File, "testdata") {
			t.Fatalf("./... descended into testdata: %s", f)
		}
	}
	// A single explicit file lints just that file.
	single, err := LintPatterns(".", []string{"testdata/dwrserve/main.go"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Violations(single)); n != 1 {
		t.Fatalf("single-file pattern found %d violations, want 1: %v", n, single)
	}
	// Recursive pattern under testdata works when asked for explicitly.
	rec, err := LintPatterns(".", []string{"testdata/server/..."})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Violations(rec)); n != 3 {
		t.Fatalf("testdata/server/... found %d violations, want 3: %v", n, rec)
	}
}
