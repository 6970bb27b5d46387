package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dwr/internal/qproc"
	"dwr/internal/textproc"
)

// smallConfig returns a fast end-to-end configuration.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Web.Hosts = 40
	cfg.Web.MaxPages = 40
	cfg.Web.VocabSize = 1500
	cfg.TrainQueries = 800
	return cfg
}

func buildEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBuildKeepsAmbientWorkers: a Config that leaves Workers unset
// leaves the fan-out to the ambient option, so a CLI's -workers flag
// reaches the engines core builds.
func TestBuildKeepsAmbientWorkers(t *testing.T) {
	qproc.SetDefaultOptions(qproc.WithWorkers(1))
	defer qproc.SetDefaultOptions()
	if w := buildEngine(t, smallConfig()).Query.Workers(); w != 1 {
		t.Fatalf("Build under ambient WithWorkers(1) built an engine of width %d", w)
	}
	cfg := smallConfig()
	cfg.Workers = 3
	if w := buildEngine(t, cfg).Query.Workers(); w != 3 {
		t.Fatalf("Config.Workers 3 built an engine of width %d", w)
	}
}

func TestEndToEndBuildAndSearch(t *testing.T) {
	e := buildEngine(t, smallConfig())
	if e.CrawlInfo.Coverage < 0.8 {
		t.Fatalf("crawl coverage %.2f", e.CrawlInfo.Coverage)
	}
	if len(e.Docs) < 100 {
		t.Fatalf("only %d documents indexed", len(e.Docs))
	}
	// Query with a term drawn from a crawled document.
	term := e.Docs[0].Terms[len(e.Docs[0].Terms)/2]
	rs := e.Search(term, SearchOptions{K: 10})
	if len(rs) == 0 {
		t.Fatalf("no results for indexed term %q", term)
	}
	for _, r := range rs {
		if r.URL == "" || !strings.HasPrefix(r.URL, "http://") {
			t.Fatalf("result without URL: %+v", r)
		}
	}
	// Scores sorted descending.
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestSearchFindsDocumentContainingTerm(t *testing.T) {
	e := buildEngine(t, smallConfig())
	d := e.Docs[len(e.Docs)/3]
	term := d.Terms[0]
	rs := e.Search(term, SearchOptions{K: 200})
	found := false
	for _, r := range rs {
		if r.Doc == d.Ext {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("document %d containing %q missing from its own term's results", d.Ext, term)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	e := buildEngine(t, smallConfig())
	if rs := e.Search("   ...   ", SearchOptions{K: 10}); rs != nil {
		t.Fatalf("empty query returned %v", rs)
	}
}

func TestPartitionStrategies(t *testing.T) {
	for _, s := range []PartitionStrategy{PartitionRandom, PartitionRoundRobin, PartitionKMeans, PartitionQueryDriven} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Strategy = s
			e := buildEngine(t, cfg)
			if got := len(e.Partition.Assign); got != len(e.Docs) {
				t.Fatalf("%v partition covers %d of %d docs", s, got, len(e.Docs))
			}
			if e.Selector == nil {
				t.Fatalf("%v engine has no selector", s)
			}
			term := e.Docs[0].Terms[0]
			if rs := e.Search(term, SearchOptions{K: 5}); len(rs) == 0 {
				t.Fatalf("%v engine returned nothing for %q", s, term)
			}
			// Selective search contacts fewer partitions but still works.
			if rs := e.Search(term, SearchOptions{K: 5, SelectN: 2}); len(rs) == 0 {
				t.Fatalf("%v selective search returned nothing", s)
			}
		})
	}
}

func TestSearchDeterministic(t *testing.T) {
	a := buildEngine(t, smallConfig())
	b := buildEngine(t, smallConfig())
	term := a.Docs[0].Terms[0]
	ra := a.Search(term, SearchOptions{K: 10})
	rb := b.Search(term, SearchOptions{K: 10})
	if len(ra) != len(rb) {
		t.Fatal("same-seed engines differ in result count")
	}
	for i := range ra {
		if ra[i].Doc != rb[i].Doc {
			t.Fatalf("same-seed engines differ at rank %d", i)
		}
	}
}

func TestTable1FullyImplemented(t *testing.T) {
	cells := Table1()
	if len(cells) != 12 {
		t.Fatalf("Table 1 has %d cells, want 3 modules × 4 issues = 12", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if len(c.Components) == 0 {
			t.Errorf("cell %s/%s has no implementing components", c.Module, c.Issue)
		}
		if c.PaperTopic == "" {
			t.Errorf("cell %s/%s missing paper topic", c.Module, c.Issue)
		}
		seen[c.Module+"/"+c.Issue] = true
		for _, comp := range c.Components {
			if err := resolveComponent(comp); err != nil {
				t.Errorf("cell %s/%s component %q: %v", c.Module, c.Issue, comp, err)
			}
		}
	}
	for _, m := range []string{"Crawling", "Indexing", "Querying"} {
		for _, i := range []string{"Partitioning", "Communication", "Dependability", "External factors"} {
			if !seen[m+"/"+i] {
				t.Errorf("missing cell %s/%s", m, i)
			}
		}
	}
}

// componentRef is a Table 1 component's leading reference: a package
// name, optionally followed by an identifier and a method.
var componentRef = regexp.MustCompile(`^([a-z]+)(?:\.([A-Z]\w*)(?:\.([A-Z]\w*))?)?`)

// resolveComponent checks that a component's leading reference names
// code that exists: the package under internal/, and in it the
// identifier (a top-level declaration) and method, when given.
func resolveComponent(comp string) error {
	m := componentRef.FindStringSubmatch(comp)
	if m == nil {
		return fmt.Errorf("does not start with a package name")
	}
	pkg, ident, method := m[1], m[2], m[3]
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("..", pkg), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return fmt.Errorf("no package internal/%s: %v", pkg, err)
	}
	if len(pkgs) == 0 {
		return fmt.Errorf("no package internal/%s", pkg)
	}
	if ident == "" {
		return nil
	}
	declared := map[string]bool{} // "Ident" and "Type.Method"
	for _, p := range pkgs {
		for _, f := range p.Files {
			for name := range f.Scope.Objects {
				declared[name] = true
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						declared[id.Name+"."+fd.Name.Name] = true
					}
				}
			}
		}
	}
	if !declared[ident] {
		return fmt.Errorf("internal/%s declares no %s", pkg, ident)
	}
	if method != "" && !declared[ident+"."+method] {
		return fmt.Errorf("internal/%s declares no method %s.%s", pkg, ident, method)
	}
	return nil
}

func TestTokenizerAgreesWithQueryPath(t *testing.T) {
	// The search path must tokenize queries the same way documents were
	// tokenized, or matching silently breaks.
	raw := "The Quick? BROWN-fox"
	docTerms := textproc.Tokenize(raw)
	queryTerms := textproc.Tokenize(strings.ToLower(raw))
	if len(docTerms) != len(queryTerms) {
		t.Fatal("tokenizer asymmetry between document and query path")
	}
	for i := range docTerms {
		if docTerms[i] != queryTerms[i] {
			t.Fatal("tokenizer asymmetry between document and query path")
		}
	}
}

func TestPhraseSearch(t *testing.T) {
	e := buildEngine(t, smallConfig())
	// Every rendered page's visible text begins with its title words, so
	// a two-word prefix of some document is a guaranteed phrase.
	d := e.Docs[len(e.Docs)/2]
	if len(d.Terms) < 2 {
		t.Skip("short document")
	}
	phrase := d.Terms[0] + " " + d.Terms[1]
	rs := e.Search(phrase, SearchOptions{K: 50, Phrase: true})
	found := false
	for _, r := range rs {
		if r.Doc == d.Ext {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("document %d not found for its own phrase %q", d.Ext, phrase)
	}
	if rs := e.Search("zzzz yyyy", SearchOptions{K: 10, Phrase: true}); len(rs) != 0 {
		t.Fatalf("nonsense phrase matched %d docs", len(rs))
	}
	// Selection applies to phrases too: with SelectN 1 every result comes
	// from the partition the engine's selector ranks first.
	first := e.Selector.Rank(textproc.Tokenize(phrase))[0]
	sel := e.Search(phrase, SearchOptions{K: 50, SelectN: 1, Phrase: true})
	if len(sel) == 0 || len(sel) >= len(rs) {
		t.Fatalf("phrase with SelectN 1: %d results of the full %d", len(sel), len(rs))
	}
	for _, r := range sel {
		if p := e.Partition.Assign[r.Doc]; p != first {
			t.Fatalf("phrase with SelectN 1 returned doc %d of partition %d; the selector ranks %d first", r.Doc, p, first)
		}
	}
}
