package experiments

import (
	"sync"

	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
)

// fixture is the shared corpus most experiments replay: one synthetic
// Web, its tokenized documents, a central index, and a query log split
// into training and test days. It is built once and reused read-only.
type fixture struct {
	web     *simweb.Web
	docs    []index.Doc
	central *index.Index
	log     *querylog.Log
	train   *querylog.Log
	test    *querylog.Log
}

var (
	fixOnce sync.Once
	fix     *fixture
)

// sharedFixture builds (once) the standard experiment corpus.
func sharedFixture() *fixture {
	fixOnce.Do(func() {
		wcfg := simweb.DefaultConfig()
		wcfg.Hosts = 250
		wcfg.MinPages = 4
		wcfg.MaxPages = 150
		wcfg.VocabSize = 4000
		web := simweb.New(wcfg)

		// Documents come straight from page terms (the crawler's parse
		// path is exercised by C5; here we want the exact collection).
		docs := core.WebDocs(web)

		b := index.NewBuilder(index.DefaultOptions())
		for _, d := range docs {
			b.AddDocument(d.Ext, d.Terms)
		}
		central := index.MustBuild(b)

		lcfg := querylog.DefaultConfig()
		lcfg.Distinct = 1500
		lcfg.Total = 15000
		lg := querylog.Generate(web, lcfg)
		train, test := lg.SplitByDay(10)

		fix = &fixture{web: web, docs: docs, central: central, log: lg, train: train, test: test}
	})
	return fix
}

// queryTerms extracts the term slices of a log's instances, capped at n.
func queryTerms(lg *querylog.Log, n int) [][]string {
	if n > len(lg.Queries) {
		n = len(lg.Queries)
	}
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		out[i] = lg.Queries[i].Terms
	}
	return out
}
