package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dwr/internal/experiments"
)

// tinyConfigs sizes every registered scenario small enough to run twice
// in a unit test (and under -race) while keeping its invariants
// meaningful: federate needs more than 2×SelectN sites for "under half
// the sites" to be reachable.
var tinyConfigs = map[string]string{
	"pruning":   `{"docs":300,"queries":20}`,
	"threshold": `{"docs":600,"queries":10,"partitions":3}`,
	"fresh":     `{"hosts":20,"parts":2,"seg_docs":8}`,
	"federate":  `{"sites":6,"per_site_docs":80,"queries":80}`,
	"serve":     `{"workers":20,"arrivals":300,"rates":[0.8,1.5]}`,
	"faults":    `{"seed":7}`,
	"paper":     `{"only":["T1","F2","C1","C6","C11","C20"]}`,
}

// configTypes names every registered scenario's config struct, so a
// recorded config can be decoded the way define decodes it without
// running the scenario at its committed size.
var configTypes = map[string]any{
	"pruning":   new(pruningConfig),
	"threshold": new(thresholdConfig),
	"fresh":     new(freshConfig),
	"federate":  new(federateConfig),
	"serve":     new(serveConfig),
	"faults":    new(faultsConfig),
	"paper":     new(paperConfig),
}

func TestDiff(t *testing.T) {
	base := func() report {
		return report{Scenario: "s", Rows: []row{
			{Name: "a",
				Counters:   map[string]float64{"work": 1000, "none": 0},
				Ratios:     map[string]float64{"speedup": 2},
				Timings:    map[string]float64{"qps": 5000},
				Invariants: map[string]bool{"identical": true}},
			{Name: "b", Counters: map[string]float64{"work": 10}},
		}}
	}
	const tol = 0.35
	for _, tc := range []struct {
		name   string
		mutate func(r *report)
		want   []string // substrings of the one violation; nil = must pass
	}{
		{"identical", func(r *report) {}, nil},
		{"counter within 1%", func(r *report) { r.Rows[0].Counters["work"] = 1010 }, nil},
		{"counter beyond 1%", func(r *report) { r.Rows[0].Counters["work"] = 1011 }, []string{"s a", "counter work"}},
		{"counter below by 2%", func(r *report) { r.Rows[1].Counters["work"] = 9.8 }, []string{"s b", "counter work"}},
		{"zero baseline only matches zero", func(r *report) { r.Rows[0].Counters["none"] = 1e-9 }, []string{"s a", "counter none"}},
		{"ratio inside tol", func(r *report) { r.Rows[0].Ratios["speedup"] = 2.6 }, nil},
		{"ratio outside tol", func(r *report) { r.Rows[0].Ratios["speedup"] = 1.2 }, []string{"s a", "ratio speedup"}},
		{"timing drift never fails", func(r *report) { r.Rows[0].Timings["qps"] = 5 }, nil},
		{"false invariant", func(r *report) { r.Rows[0].Invariants["identical"] = false }, []string{"s a", "invariant identical"}},
		{"missing row", func(r *report) { r.Rows = r.Rows[:1] }, []string{"2 baseline rows vs 1 fresh"}},
		{"extra row", func(r *report) { r.Rows = append(r.Rows, row{Name: "c"}) }, []string{"2 baseline rows vs 3 fresh"}},
		{"reordered rows", func(r *report) { r.Rows[0], r.Rows[1] = r.Rows[1], r.Rows[0] }, []string{"s a", `"b"`}},
		{"counter only in baseline", func(r *report) { delete(r.Rows[0].Counters, "work") }, []string{"s a", "counter work", "baseline only"}},
		{"counter only in fresh", func(r *report) { r.Rows[1].Counters["new"] = 1 }, []string{"s b", "counter new", "fresh run only"}},
		{"timing only in fresh", func(r *report) { r.Rows[0].Timings["p50"] = 1 }, []string{"s a", "timing p50", "fresh run only"}},
		{"invariant only in baseline", func(r *report) { delete(r.Rows[0].Invariants, "identical") }, []string{"s a", "invariant identical", "baseline only"}},
	} {
		fresh := base()
		tc.mutate(&fresh)
		got := diff(base(), fresh, tol)
		if tc.want == nil {
			if len(got) != 0 {
				t.Errorf("%s: want no violation, got %q", tc.name, got)
			}
			continue
		}
		// Reordering two rows is reported once per displaced row.
		if len(got) == 0 || (len(got) > 1 && tc.name != "reordered rows") {
			t.Errorf("%s: want one violation, got %q", tc.name, got)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(got[0], sub) {
				t.Errorf("%s: violation %q does not mention %q", tc.name, got[0], sub)
			}
		}
	}
}

// scenarioPair is one scenario run twice, the way -check runs it: first
// from its tiny config at GOMAXPROCS 1, then at GOMAXPROCS 8 (the
// engines' one fan-out width) from the config the first artifact
// recorded. Each report is read back from the artifact it wrote.
// TestScenariosReplay and TestCountersIgnoreWorkers both assert on the
// one pair, made once per scenario.
type scenarioPair struct {
	once          sync.Once
	first, second report
	err           error
}

// pairs is filled as subtests ask; no test here runs in parallel with
// another, so neither the map nor the process-wide GOMAXPROCS is shared.
var pairs = map[string]*scenarioPair{}

func runPair(t *testing.T, s scenario) (first, second report) {
	t.Helper()
	p := pairs[s.name]
	if p == nil {
		p = new(scenarioPair)
		pairs[s.name] = p
	}
	p.once.Do(func() {
		dir, err := os.MkdirTemp("", "dwrbench-pair")
		if err != nil {
			p.err = err
			return
		}
		defer os.RemoveAll(dir)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		measure := func(procs int, config []byte) (report, error) {
			runtime.GOMAXPROCS(procs)
			rep, err := s.run(io.Discard, config)
			if err == nil {
				_, err = rep.write(dir)
			}
			if err != nil {
				return report{}, err
			}
			return loadReport(dir, s.name)
		}
		if p.first, p.err = measure(1, []byte(tinyConfigs[s.name])); p.err == nil {
			p.second, p.err = measure(8, p.first.Config)
		}
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.first, p.second
}

// sameCounters fails t unless the two reports hold the same rows with
// identical counters — what -check holds to 1%.
func sameCounters(t *testing.T, first, second report) {
	t.Helper()
	if len(second.Rows) != len(first.Rows) {
		t.Fatalf("%d rows, then %d", len(first.Rows), len(second.Rows))
	}
	for i, r := range first.Rows {
		if r.Name != second.Rows[i].Name || !reflect.DeepEqual(r.Counters, second.Rows[i].Counters) {
			t.Errorf("row %q counters differ between two runs:\n%v\n%s %v", r.Name, r.Counters, second.Rows[i].Name, second.Rows[i].Counters)
		}
	}
}

// TestScenariosReplay: every registered scenario's pair is well formed,
// every invariant of both runs is true, the recorded config reproduces
// itself, and the two runs report identical counters.
func TestScenariosReplay(t *testing.T) {
	if len(tinyConfigs) != len(scenarios) {
		t.Fatalf("%d tiny configs for %d registered scenarios", len(tinyConfigs), len(scenarios))
	}
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			first, second := runPair(t, s)
			if first.Scenario != s.name || len(first.Rows) == 0 {
				t.Fatalf("malformed report: scenario %q, %d rows", first.Scenario, len(first.Rows))
			}
			var cfg map[string]any
			if err := json.Unmarshal(first.Config, &cfg); err != nil || len(cfg) == 0 {
				t.Fatalf("report config %s: %v", first.Config, err)
			}
			gated := 0
			for _, r := range first.Rows {
				if r.Name == "" {
					t.Error("row without a name")
				}
				gated += len(r.Counters)
			}
			if gated == 0 {
				t.Error("no counters: nothing for -check to hold")
			}
			for _, rep := range []report{first, second} {
				if bad := diff(rep, rep, 0); len(bad) != 0 {
					t.Errorf("invariants violated: %q", bad)
				}
			}
			if !bytes.Equal(first.Config, second.Config) {
				t.Errorf("config did not round-trip: %s then %s", first.Config, second.Config)
			}
			sameCounters(t, first, second)
		})
	}
}

// TestCheckNamesTheDrift: -check over a directory holding one doctored
// baseline exits 1 and names scenario, row and key; over the honest
// baseline it exits 0; over an empty directory it lists the registry.
func TestCheckNamesTheDrift(t *testing.T) {
	dir := t.TempDir()
	tiny := tinyConfigs["pruning"]
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "pruning", "-config", tiny, "-benchdir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("-run pruning exited %d: %s", code, stderr.String())
	}
	check := func() (int, string) {
		stdout.Reset()
		stderr.Reset()
		// A wide -checktol: tiny wall-clock ratios are noise, not the subject.
		code := run([]string{"-check", "-checktol", "100", "-benchdir", dir}, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}
	if code, out := check(); code != 0 {
		t.Fatalf("-check against an honest baseline exited %d:\n%s", code, out)
	}

	rep, err := loadReport(dir, "pruning")
	if err != nil {
		t.Fatal(err)
	}
	const rowName, key = "maxscore k=10", "postings_per_query"
	doctored := false
	for _, r := range rep.Rows {
		if r.Name == rowName {
			r.Counters[key] *= 1.02
			doctored = true
		}
	}
	if !doctored {
		t.Fatalf("no row %q in %v", rowName, rep.Rows)
	}
	if _, err := rep.write(dir); err != nil {
		t.Fatal(err)
	}
	code, out := check()
	if code != 1 {
		t.Errorf("-check against a doctored baseline exited %d, want 1", code)
	}
	if want := "FAIL pruning " + rowName + ": counter " + key; !strings.Contains(out, want) {
		t.Errorf("output does not contain %q:\n%s", want, out)
	}

	if err := os.Remove(artifactPath(dir, "pruning")); err != nil {
		t.Fatal(err)
	}
	code, out = check()
	if code != 1 {
		t.Errorf("-check with no baseline exited %d, want 1", code)
	}
	for _, s := range scenarios {
		if !strings.Contains(out, s.name) {
			t.Errorf("no-baseline error does not list scenario %q: %s", s.name, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-run", "pruning", "-config", `{"docs":300,"querys":20}`, "-benchdir", ""}, 1, `unknown field "querys"`},
		{[]string{"-run", "pruning", "-config", `{"docs":0}`, "-benchdir", ""}, 1, "must be positive"},
		{[]string{"-run", "nope"}, 2, `unknown scenario "nope"`},
		{[]string{"-run", "paper", "-config", `{"only":["T1","nope"]}`, "-benchdir", ""}, 1, `unknown experiment "nope"`},
		{[]string{"-config", `{"docs":300}`}, 2, "-config needs -run"},
		{[]string{"-pruning"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%q exited %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q does not mention %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestList: the package comment promises IDs with titles and scenario
// names with descriptions, from -list and from a bare dwrbench alike.
func TestList(t *testing.T) {
	var stdout, stderr, bare bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, want := range []string{
		"F6         Maximum capacity of a front-end server, G/G/150 model",
		"C23        Frontier prioritization",
		"serve      " + serveScenario.desc,
		"paper      " + paperScenario.desc,
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output lacks %q:\n%s", want, stdout.String())
		}
	}
	if code := run(nil, &bare, &stderr); code != 0 || bare.String() != stdout.String() {
		t.Errorf("bare dwrbench exited %d and printed %q, want the -list output", code, bare.String())
	}
}

// TestEveryScenarioHasItsArtifact: -check skips a scenario whose
// artifact is missing, so deleting a docs/BENCH_*.json would un-gate it
// silently. Every registered scenario must have a committed artifact
// whose config the current scenario still decodes, and the paper
// artifact must cover the whole experiment registry.
func TestEveryScenarioHasItsArtifact(t *testing.T) {
	const dir = "../../docs"
	for _, s := range scenarios {
		rep, err := loadReport(dir, s.name)
		if err != nil {
			t.Errorf("scenario %s is not gated: %v", s.name, err)
			continue
		}
		if rep.Scenario != s.name || len(rep.Rows) == 0 {
			t.Errorf("%s: artifact names scenario %q and holds %d rows", s.name, rep.Scenario, len(rep.Rows))
		}
		cfg, ok := configTypes[s.name]
		if !ok {
			t.Errorf("%s: no entry in configTypes", s.name)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(rep.Config))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			t.Errorf("%s: recorded config %s no longer decodes: %v", s.name, rep.Config, err)
		}
	}

	rep, err := loadReport(dir, "paper")
	if err != nil {
		t.Fatal(err)
	}
	var cfg paperConfig
	if err := json.Unmarshal(rep.Config, &cfg); err != nil || len(cfg.Only) != 0 {
		t.Errorf("paper artifact recorded with config %s (%v), want only empty", rep.Config, err)
	}
	reg := experiments.Registry()
	if len(rep.Rows) != len(reg) {
		t.Fatalf("paper artifact holds %d rows for %d registered experiments", len(rep.Rows), len(reg))
	}
	for i, e := range reg {
		if rep.Rows[i].Name != e.ID {
			t.Errorf("paper artifact row %d is %q, registry has %q", i, rep.Rows[i].Name, e.ID)
		}
	}
}

// TestCountersIgnoreWorkers: every registered scenario reports the same
// counters at GOMAXPROCS 1 and GOMAXPROCS 8, the engines' only fan-out
// width; only timings and ratios may differ.
func TestCountersIgnoreWorkers(t *testing.T) {
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			serial, wide := runPair(t, s)
			sameCounters(t, serial, wide)
		})
	}
}

// TestGoBenchmarksNameATracedMetric holds the rule for keeping a Go
// benchmark outside bench/: it is the microbenchmark behind one of
// BENCHMARK.json's per-layer metrics, and its doc comment names that
// metric. A deterministic number belongs in a dwrbench counter instead.
func TestGoBenchmarksNameATracedMetric(t *testing.T) {
	const root = "../.."
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json per_layer: %d metrics, %v", len(spec.PerLayer), err)
	}
	names := func(doc string) bool {
		for _, m := range spec.PerLayer {
			if strings.Contains(doc, m.Name) {
				return true
			}
		}
		return false
	}
	found := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel, _ := filepath.Rel(root, path); rel == "bench" || rel == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			found++
			if !names(fn.Doc.Text()) {
				t.Errorf("%s: %s's doc comment names no per_layer metric of BENCHMARK.json", path, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Error("found no Go benchmark: is the walk rooted at the repository?")
	}
}

// TestProseBudget caps the prose that describes the code: a change that
// adds a paragraph to one of these files removes one, or raises its
// budget in plain sight. Lower a budget when a change cuts its file.
func TestProseBudget(t *testing.T) {
	for path, budget := range map[string]int{
		"DESIGN.md":                      1033,
		"README.md":                      350,
		".claude/skills/verify/SKILL.md": 236,
	} {
		raw, err := os.ReadFile(filepath.Join("../..", path))
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(raw, []byte("\n")); n > budget {
			t.Errorf("%s has %d lines, over its budget of %d", path, n, budget)
		}
	}
}
