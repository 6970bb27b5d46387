package qproc

import (
	"fmt"
	"math/rand"
	"testing"

	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// corpus builds n docs over a Zipf vocabulary of v terms.
func corpus(seed int64, n, v int) []index.Doc {
	rng := rand.New(rand.NewSource(seed))
	z := randx.NewZipf(v, 1.0)
	docs := make([]index.Doc, n)
	for i := range docs {
		l := 20 + rng.Intn(80)
		terms := make([]string, l)
		for j := range terms {
			terms[j] = fmt.Sprintf("w%04d", z.Draw(rng))
		}
		docs[i] = index.Doc{Ext: i, Terms: terms}
	}
	return docs
}

// zipfQueries builds q queries of 1-3 terms from the same distribution.
func zipfQueries(seed int64, q, v int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	z := randx.NewZipf(v, 1.0)
	out := make([][]string, q)
	for i := range out {
		n := 1 + rng.Intn(3)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = fmt.Sprintf("w%04d", z.Draw(rng))
		}
		out[i] = terms
	}
	return out
}

func centralIndex(docs []index.Doc) *index.Index {
	b := index.NewBuilder(index.DefaultOptions())
	for _, d := range docs {
		b.AddDocument(d.Ext, d.Terms)
	}
	return index.MustBuild(b)
}

func newDocEngine(t *testing.T, docs []index.Doc, k int, options ...Option) *DocEngine {
	t.Helper()
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	dp := partition.RoundRobinDocs(ids, k)
	e, err := NewDocEngine(index.DefaultOptions(), docs, dp, options...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sameRanking(t *testing.T, a, b []rank.Result, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Doc != b[i].Doc {
			t.Fatalf("%s: rank %d doc %d vs %d", label, i, a[i].Doc, b[i].Doc)
		}
		if d := a[i].Score - b[i].Score; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: rank %d score %v vs %v", label, i, a[i].Score, b[i].Score)
		}
	}
}

func TestDocEngineTwoRoundEqualsCentral(t *testing.T) {
	docs := corpus(1, 400, 300)
	central := centralIndex(docs)
	cs := rank.NewScorer(rank.FromIndex(central))
	e := newDocEngine(t, docs, 4)
	for _, q := range zipfQueries(2, 40, 300) {
		want, _ := rank.EvaluateOR(central, cs, q, 10)
		got := e.Query(q, DocQueryOptions{K: 10, Stats: GlobalTwoRound})
		sameRanking(t, want, got.Results, fmt.Sprintf("query %v", q))
		if got.Rounds != 2 {
			t.Fatalf("two-round protocol reported %d rounds", got.Rounds)
		}
	}
}

func TestDocEnginePrecomputedEqualsTwoRound(t *testing.T) {
	docs := corpus(3, 300, 200)
	e := newDocEngine(t, docs, 4)
	for _, q := range zipfQueries(4, 30, 200) {
		a := e.Query(q, DocQueryOptions{K: 10, Stats: GlobalTwoRound})
		b := e.Query(q, DocQueryOptions{K: 10, Stats: GlobalPrecomputed})
		sameRanking(t, a.Results, b.Results, fmt.Sprintf("query %v", q))
		if b.Rounds != 1 {
			t.Fatalf("precomputed stats took %d rounds", b.Rounds)
		}
	}
}

func TestDocEngineLocalStatsDiverge(t *testing.T) {
	// With small skewed partitions, local DF differs from global DF and
	// some rankings must change — the C9 phenomenon. We use a topically
	// clustered partition to amplify the skew.
	docs := corpus(5, 400, 100)
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	// Contiguous chunks rather than round-robin: more DF skew.
	dp := partition.DocPartition{K: 4, Parts: make([][]int, 4), Assign: make(map[int]int)}
	for i, id := range ids {
		p := i * 4 / len(ids)
		dp.Parts[p] = append(dp.Parts[p], id)
		dp.Assign[id] = p
	}
	e, err := NewDocEngine(index.DefaultOptions(), docs, dp)
	if err != nil {
		t.Fatal(err)
	}
	sumOverlap, n := 0.0, 0
	for _, q := range zipfQueries(6, 60, 100) {
		g := e.Query(q, DocQueryOptions{K: 10, Stats: GlobalTwoRound})
		l := e.Query(q, DocQueryOptions{K: 10, Stats: LocalOnly})
		if len(g.Results) == 0 {
			continue
		}
		sumOverlap += rank.Overlap(g.Results, l.Results, 10)
		n++
	}
	if n == 0 {
		t.Fatal("no queries evaluated")
	}
	avg := sumOverlap / float64(n)
	if avg >= 0.9999 {
		t.Fatalf("local-only ranking identical to global (overlap %.4f); statistics skew not exercised", avg)
	}
	if avg < 0.3 {
		t.Fatalf("local-only overlap %.3f implausibly low", avg)
	}
}

func TestTermEngineEqualsCentral(t *testing.T) {
	docs := corpus(7, 300, 200)
	central := centralIndex(docs)
	cs := rank.NewScorer(rank.FromIndex(central))
	terms := central.Terms()
	tp := partition.BinPackTerms(terms, func(t string) float64 {
		return float64(central.DF(t))
	}, 4)
	e, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range zipfQueries(8, 40, 200) {
		want, _ := rank.EvaluateOR(central, cs, q, 10)
		got := e.Query(q, 10)
		sameRanking(t, want, got.Results, fmt.Sprintf("query %v", q))
	}
}

func TestTermEngineContactsOnlyOwningServers(t *testing.T) {
	docs := corpus(9, 200, 150)
	central := centralIndex(docs)
	tp := partition.BinPackTerms(central.Terms(), func(t string) float64 { return 1 }, 8)
	e, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range zipfQueries(10, 30, 150) {
		got := e.Query(q, 10)
		if got.ServersContacted > len(q) {
			t.Fatalf("query %v contacted %d servers (> #terms)", q, got.ServersContacted)
		}
	}
	// Document engine in broadcast mode always contacts all 8.
	de := newDocEngine(t, docs, 8)
	qr := de.Query([]string{"w0001"}, DocQueryOptions{K: 10})
	if qr.ServersContacted != 8 {
		t.Fatalf("doc engine broadcast contacted %d of 8", qr.ServersContacted)
	}
}

func TestFigure2BusyLoadShape(t *testing.T) {
	// Replay the same Zipf workload through both architectures. The
	// document-partitioned engine's per-server busy load should be near
	// flat; the pipelined term-partitioned engine's should be visibly
	// imbalanced (Figure 2).
	docs := corpus(11, 600, 400)
	queries := zipfQueries(12, 400, 400)
	central := centralIndex(docs)

	de := newDocEngine(t, docs, 8)
	tp := partition.RandomTerms(rand.New(rand.NewSource(1)), central.Terms(), 8)
	te, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		de.Query(q, DocQueryOptions{K: 10})
		te.Query(q, 10)
	}
	docIm := metrics.NewImbalance(de.BusyMs())
	termIm := metrics.NewImbalance(te.BusyMs())
	if docIm.CV >= termIm.CV {
		t.Fatalf("doc-partitioned CV %.3f not below term-partitioned CV %.3f", docIm.CV, termIm.CV)
	}
	if docIm.MaxOver > 1.4 {
		t.Fatalf("doc-partitioned MaxOver %.3f; should hug the mean line", docIm.MaxOver)
	}
	if termIm.MaxOver < 1.3 {
		t.Fatalf("term-partitioned MaxOver %.3f; expected visible imbalance", termIm.MaxOver)
	}
}

func TestWebberResourceShape(t *testing.T) {
	// C6: term partitioning reads fewer posting bytes per query (only
	// the query's terms, once) than document partitioning (every
	// partition reads its slice of every term).
	docs := corpus(13, 400, 300)
	central := centralIndex(docs)
	queries := zipfQueries(14, 200, 300)

	de := newDocEngine(t, docs, 8)
	tp := partition.BinPackTerms(central.Terms(), func(t string) float64 {
		return float64(central.DF(t))
	}, 8)
	te, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	var docServers, termServers int
	for _, q := range queries {
		d := de.Query(q, DocQueryOptions{K: 10})
		tr := te.Query(q, 10)
		docServers += d.ServersContacted
		termServers += tr.ServersContacted
	}
	if termServers >= docServers {
		t.Fatalf("term engine used %d server-contacts vs doc %d; expected fewer", termServers, docServers)
	}
}

func TestDocEngineSelectionReducesWork(t *testing.T) {
	docs := corpus(15, 400, 200)
	e := newDocEngine(t, docs, 8)
	var stats []index.Stats
	for p := 0; p < e.K(); p++ {
		stats = append(stats, e.PartIndex(p).LocalStats(nil))
	}
	sel := selection.NewCORI(stats)
	q := []string{"w0003", "w0010"}
	full := e.Query(q, DocQueryOptions{K: 10, Stats: GlobalPrecomputed})
	selected := e.Query(q, DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Selector: sel, SelectN: 3})
	if selected.ServersContacted != 3 {
		t.Fatalf("selection contacted %d servers, want 3", selected.ServersContacted)
	}
	if selected.PostingsDecoded >= full.PostingsDecoded {
		t.Fatalf("selection decoded %d postings, broadcast %d", selected.PostingsDecoded, full.PostingsDecoded)
	}
	// Selected results must be a subset of the full ranking's documents'
	// scores (same global stats, fewer partitions).
	fullScores := map[int]float64{}
	for _, r := range full.Results {
		fullScores[r.Doc] = r.Score
	}
	for _, r := range selected.Results {
		if s, ok := fullScores[r.Doc]; ok {
			if d := s - r.Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("doc %d scored differently under selection", r.Doc)
			}
		}
	}
}

func TestDocEngineFailedProcessorDegrades(t *testing.T) {
	docs := corpus(17, 300, 200)
	e := newDocEngine(t, docs, 4)
	q := []string{"w0001"}
	full := e.Query(q, DocQueryOptions{K: 50, Stats: GlobalPrecomputed})
	e.SetDown(2, true)
	deg := e.Query(q, DocQueryOptions{K: 50, Stats: GlobalPrecomputed})
	if !deg.Degraded {
		t.Fatal("query with a down processor not flagged degraded")
	}
	if deg.ServersContacted != 3 {
		t.Fatalf("contacted %d servers with one down", deg.ServersContacted)
	}
	if len(deg.Results) >= len(full.Results) && len(full.Results) > 0 {
		// Partition 2's docs are missing, so the degraded answer should
		// not contain any doc assigned to partition 2.
		for _, r := range deg.Results {
			if e.Partition().Assign[r.Doc] == 2 {
				t.Fatalf("degraded answer contains doc %d from the failed partition", r.Doc)
			}
		}
	}
	// A phrase answer missing the same partition is a degraded outcome
	// too, and is tallied like the term query's.
	if ph := e.Query(q, DocQueryOptions{K: 50, Stats: GlobalPrecomputed, Phrase: true}); !ph.Degraded || ph.ServersContacted != 3 {
		t.Fatalf("phrase query with a down processor: degraded=%v contacted=%d", ph.Degraded, ph.ServersContacted)
	}
	if st := e.Stats(); st.Degraded != 2 {
		t.Fatalf("Stats().Degraded = %d after a degraded query and a degraded phrase query", st.Degraded)
	}
	e.SetDown(2, false)
	restored := e.Query(q, DocQueryOptions{K: 50, Stats: GlobalPrecomputed})
	if restored.Degraded {
		t.Fatal("recovered engine still degraded")
	}
	sameRanking(t, full.Results, restored.Results, "after recovery")
}

// phraseCorpus builds docs with a controlled phrase.
func phraseCorpus() []index.Doc {
	docs := corpus(23, 250, 150)
	// Inject a known phrase into some documents.
	for i := 0; i < len(docs); i += 7 {
		docs[i].Terms = append(docs[i].Terms, "exact", "phrase", "here")
	}
	return docs
}

func TestPhraseEnginesMatchCentral(t *testing.T) {
	docs := phraseCorpus()
	central := centralIndex(docs)
	query := []string{"exact", "phrase", "here"}

	de := newDocEngine(t, docs, 4)
	gs := rank.NewScorer(rank.FromGlobal(de.GlobalStats()))
	want, _ := rank.EvaluatePhrase(central, gs, query, 10)
	if len(want) == 0 {
		t.Fatal("central phrase evaluation found nothing; corpus broken")
	}

	dres := de.Query(query, DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Phrase: true})
	sameRanking(t, want, dres.Results, "doc-partitioned phrase")

	tp := partition.BinPackTerms(central.Terms(), func(s string) float64 {
		return float64(central.DF(s))
	}, 4)
	te, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	tres := te.QueryPhrase(query, 10, true)
	sameRanking(t, want, tres.Results, "term-partitioned phrase")
}

func TestPhrasePositionShippingCost(t *testing.T) {
	docs := phraseCorpus()
	central := centralIndex(docs)
	query := []string{"exact", "phrase", "here"}

	de := newDocEngine(t, docs, 4)
	// Force the phrase terms onto distinct servers so positions must ship.
	tp := partition.TermPartition{K: 4, Assign: map[string]int{}}
	for i, term := range central.Terms() {
		tp.Assign[term] = i % 4
	}
	tp.Assign["exact"], tp.Assign["phrase"], tp.Assign["here"] = 0, 1, 2
	te, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	dres := de.Query(query, DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Phrase: true})
	raw := te.QueryPhrase(query, 10, false)
	compressed := te.QueryPhrase(query, 10, true)
	sameRanking(t, raw.Results, compressed.Results, "compression must not change results")
	if raw.BytesTransferred <= dres.BytesTransferred {
		t.Fatalf("term-partitioned phrase shipped %d bytes, doc-partitioned %d; positions should dominate",
			raw.BytesTransferred, dres.BytesTransferred)
	}
	if compressed.BytesTransferred >= raw.BytesTransferred {
		t.Fatalf("compressed shipping %d not below raw %d", compressed.BytesTransferred, raw.BytesTransferred)
	}
}

func TestPhraseNoMatchAcrossEngines(t *testing.T) {
	docs := phraseCorpus()
	central := centralIndex(docs)
	de := newDocEngine(t, docs, 4)
	tp := partition.RandomTerms(rand.New(rand.NewSource(2)), central.Terms(), 4)
	te, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	query := []string{"here", "phrase", "exact"} // reversed order: no doc has it
	if res := de.Query(query, DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Phrase: true}); len(res.Results) != 0 {
		t.Fatalf("doc engine matched reversed phrase: %v", res.Results)
	}
	if res := te.QueryPhrase(query, 10, true); len(res.Results) != 0 {
		t.Fatalf("term engine matched reversed phrase: %v", res.Results)
	}
	// A phrase none of whose terms any server owns has no route to travel;
	// it used to index the route's last hop and panic.
	unknown := []string{"zzzunknown", "yyyunknown"}
	if res := de.Query(unknown, DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Phrase: true}); len(res.Results) != 0 {
		t.Fatalf("doc engine matched unknown terms: %v", res.Results)
	}
	if res := te.QueryPhrase(unknown, 10, true); len(res.Results) != 0 || res.ServersContacted != 0 || res.Err != nil {
		t.Fatalf("term engine on unknown terms: %+v, want the empty answer of an empty route", res)
	}
}

// TestTermPhraseUnownedTerm: a term no server owns empties the phrase
// whichever servers the other terms route through. A missing key of the
// assignment map reads as server 0, so the rows put server 0 on and off
// the route.
func TestTermPhraseUnownedTerm(t *testing.T) {
	docs := phraseCorpus()
	tp := partition.TermPartition{K: 4, Assign: map[string]int{}}
	for i, term := range centralIndex(docs).Terms() {
		tp.Assign[term] = i % 4
	}
	tp.Assign["exact"], tp.Assign["phrase"], tp.Assign["here"] = 1, 2, 0
	te, err := NewTermEngine(index.DefaultOptions(), docs, tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		phrase    []string
		match     bool
		contacted int
	}{
		{"all known", []string{"exact", "phrase"}, true, 2},
		{"one unknown, server 0 on the route", []string{"phrase", "here", "zzzunknown"}, false, 0},
		{"one unknown, server 0 off the route", []string{"exact", "phrase", "zzzunknown"}, false, 0},
		{"all unknown", []string{"zzzunknown", "yyyunknown"}, false, 0},
	} {
		res := te.QueryPhrase(tc.phrase, 10, true)
		if (len(res.Results) > 0) != tc.match || res.ServersContacted != tc.contacted || res.Err != nil {
			t.Errorf("%s: %d results from %d servers (err %v), want match=%v from %d",
				tc.name, len(res.Results), res.ServersContacted, res.Err, tc.match, tc.contacted)
		}
	}
}
