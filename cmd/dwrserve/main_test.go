package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"dwr/internal/index"
	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// hit is one /search result as the tests read it.
type hit struct {
	Doc   int
	Score float64
	URL   string
}

// leadingWords is a two-term query text taken from a document's head.
func leadingWords(d index.Doc) string {
	return strings.Join(d.Terms[:min(2, len(d.Terms))], " ")
}

// getJSON fetches path from srv and decodes the JSON body into v.
func getJSON(t *testing.T, srv *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

// TestLiveServesTheCrawl drives the -live wiring end to end: the server
// comes up over empty segment stores, a crawl streams a few hundred
// pages through the segment writers and seals them, and the HTTP
// surface then finds those pages, reports every partition, and counts
// the query.
func TestLiveServesTheCrawl(t *testing.T) {
	o := options{c: 4, seed: 1, hosts: 45, partitions: 3, workers: 2,
		cacheCap: 32, segDocs: 32, mergeWorkers: 2, deadline: 1000}
	h, crawl, err := newLive(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The query: the leading words of a seed page, as the crawl will
	// tokenize them.
	web := simweb.New(corpusConfig(o).Web)
	seedPage := web.Hosts[0].Pages[0]
	words := textproc.Tokenize(textproc.ParseHTML(web.RenderHTML(seedPage, 0)).Text)
	if len(words) < 2 {
		t.Fatalf("seed page tokenizes to %v", words)
	}
	search := "/search?k=1000&q=" + url.QueryEscape(strings.Join(words[:2], " "))

	var before struct{ Status string }
	if code := getJSON(t, srv, search, &before); code != http.StatusOK || before.Status != "ok" {
		t.Fatalf("search over empty stores: HTTP %d, status %q", code, before.Status)
	}

	fetched, indexed := crawl()
	if indexed < 200 || indexed > fetched {
		t.Fatalf("crawl fetched %d pages and indexed %d; want a few hundred searchable", fetched, indexed)
	}

	var found struct {
		Status  string
		Results []struct {
			Doc int
			URL string
		}
	}
	if code := getJSON(t, srv, search, &found); code != http.StatusOK || found.Status != "ok" {
		t.Fatalf("search after the crawl: HTTP %d, status %q", code, found.Status)
	}
	hit := false
	for _, r := range found.Results {
		if r.URL != web.URL(r.Doc) {
			t.Fatalf("doc %d resolved to %q, want %q", r.Doc, r.URL, web.URL(r.Doc))
		}
		hit = hit || r.Doc == seedPage
	}
	if !hit {
		t.Fatalf("%d results for %v, the seed page %d not among them", len(found.Results), words[:2], seedPage)
	}

	var health struct {
		Healthy     bool
		Live, Units int
	}
	if code := getJSON(t, srv, "/healthz", &health); code != http.StatusOK || !health.Healthy ||
		health.Units != o.partitions || health.Live != o.partitions {
		t.Fatalf("healthz: HTTP %d %+v, want %d healthy partitions", code, health, o.partitions)
	}

	var stats struct {
		Served        int64
		EngineQueries int `json:"engine_queries"`
		Units         int
	}
	getJSON(t, srv, "/stats", &stats)
	if stats.Served != 2 || stats.EngineQueries == 0 || stats.Units != o.partitions {
		t.Fatalf("stats: %+v, want 2 served, engine queries counted, %d units", stats, o.partitions)
	}
}

// TestModesServeTheSameCorpus: the same -seed and -hosts name one web and
// one crawl of it whichever mode serves them — -live fetches and indexes
// exactly the pages the static build does, with the same text under the
// same URLs. (-live used to start from simweb's defaults and static
// from core's: other page caps, another vocabulary.)
func TestModesServeTheSameCorpus(t *testing.T) {
	defer qproc.SetDefaultOptions()
	o := options{c: 4, seed: 3, hosts: 30, partitions: 3, workers: 2,
		segDocs: 32, mergeWorkers: 2, deadline: 1000}
	_, eng, err := newStatic(o)
	if err != nil {
		t.Fatal(err)
	}
	h, crawl, err := newLive(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	fetched, indexed := crawl()
	if fetched != eng.CrawlInfo.DistinctPages || indexed != len(eng.Docs) {
		t.Fatalf("live fetched %d pages and indexed %d, static %d and %d",
			fetched, indexed, eng.CrawlInfo.DistinctPages, len(eng.Docs))
	}
	for _, d := range eng.Docs {
		// The closing words are body text, drawn from the web's
		// vocabulary; the leading ones only spell the URL.
		body := strings.Join(d.Terms[len(d.Terms)-2:], " ")
		var got struct{ Results []hit }
		getJSON(t, srv, "/search?k=1000&q="+url.QueryEscape(body), &got)
		found := false
		for _, r := range got.Results {
			if r.Doc == d.Ext {
				found = r.URL == eng.URLOf(d.Ext)
				break
			}
		}
		if !found {
			t.Fatalf("static document %d (%s) is not what -live serves for its words %q", d.Ext, eng.URLOf(d.Ext), body)
		}
	}
}

// TestStaticServesTheMeasuredConfiguration drives the default wiring:
// the engine behind /search evaluates with MaxScore pruning and
// threshold sharing (the configuration bench/ measures), and what it
// serves is still bit for bit the exhaustive per-partition evaluation,
// merged.
func TestStaticServesTheMeasuredConfiguration(t *testing.T) {
	defer qproc.SetDefaultOptions()
	o := options{c: 4, seed: 1, hosts: 45, partitions: 3, workers: 2, deadline: 1000}
	h, eng, err := newStatic(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	const k = 10
	scorer := rank.NewScorer(rank.FromGlobal(eng.Query.GlobalStats()))
	lists := make([][]rank.Result, eng.Query.K())
	for i := 0; i < len(eng.Docs); i += len(eng.Docs) / 25 {
		text := leadingWords(eng.Docs[i])
		terms := textproc.Tokenize(text)
		for p := range lists {
			lists[p], _ = rank.EvaluateOR(eng.Query.PartIndex(p), scorer, terms, k)
		}
		want := rank.MergeResults(k, lists...)

		var got struct {
			Status  string
			Results []hit
		}
		path := fmt.Sprintf("/search?k=%d&q=%s", k, url.QueryEscape(text))
		if code := getJSON(t, srv, path, &got); code != http.StatusOK || got.Status != "ok" {
			t.Fatalf("%q: HTTP %d, status %q", text, code, got.Status)
		}
		if len(got.Results) != len(want) || len(want) == 0 {
			t.Fatalf("%q: %d results, the exhaustive oracle has %d", text, len(got.Results), len(want))
		}
		for j, w := range want {
			if g := got.Results[j]; g.Doc != w.Doc || g.Score != w.Score || g.URL != eng.URLOf(w.Doc) {
				t.Fatalf("%q rank %d: served %+v, oracle %+v at %q", text, j, g, w, eng.URLOf(w.Doc))
			}
		}
	}

	var health struct{ Units int }
	if getJSON(t, srv, "/healthz", &health); health.Units != o.partitions {
		t.Fatalf("healthz reports %d units, want %d partitions", health.Units, o.partitions)
	}
	if ts := eng.Query.Stats().Threshold; ts.Queries == 0 {
		t.Fatalf("no served query ran the threshold-shared schedule: %+v", ts)
	}
}

// TestFederateServesMediatedAnswers drives the -federate wiring: the
// mediator is on the serving path, every site is a unit, and -deadline
// reaches the federation — a budget below the virtual WAN round trip
// times a remote site's answer out, a generous one serves it.
func TestFederateServesMediatedAnswers(t *testing.T) {
	defer qproc.SetDefaultOptions()
	// -sites 0 used to crawl the whole corpus and then divide by zero.
	for _, sites := range []int{0, -1} {
		if _, _, err := newFederate(options{seed: 1, hosts: 45, partitions: 2, sites: sites}); err == nil {
			t.Fatalf("-sites %d accepted", sites)
		}
	}
	for _, tc := range []struct {
		deadline float64
		status   string
		code     int
	}{
		{5, "timeout", http.StatusGatewayTimeout},
		{100000, "ok", http.StatusOK},
	} {
		o := options{c: 4, seed: 1, hosts: 45, partitions: 2, workers: 2,
			sites: 3, sampleEvery: 2, deadline: tc.deadline}
		h, eng, err := newFederate(o)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		for i := 0; i < len(eng.Docs); i += len(eng.Docs) / 12 {
			// Queries from region 0 for a page some other site holds:
			// the answer crosses the WAN, tens of virtual ms.
			if hostSite(eng.URLOf(eng.Docs[i].Ext), o.sites) == 0 {
				continue
			}
			var got struct {
				Status  string
				Results []hit
			}
			path := "/search?q=" + url.QueryEscape(leadingWords(eng.Docs[i]))
			if code := getJSON(t, srv, path, &got); code != tc.code || got.Status != tc.status {
				t.Fatalf("deadline %v, %s: HTTP %d, status %q; want %d %q", tc.deadline, path, code, got.Status, tc.code, tc.status)
			}
			if (len(got.Results) > 0) != (tc.status == "ok") {
				t.Fatalf("deadline %v, %s: status %q with %d results", tc.deadline, path, got.Status, len(got.Results))
			}
		}
		var stats struct {
			Selection struct{ Queries int }
		}
		getJSON(t, srv, "/stats", &stats)
		var health struct{ Units int }
		getJSON(t, srv, "/healthz", &health)
		srv.Close()
		if stats.Selection.Queries == 0 || health.Units != o.sites {
			t.Fatalf("deadline %v: selection.queries = %d, units = %d; want mediated queries over %d sites",
				tc.deadline, stats.Selection.Queries, health.Units, o.sites)
		}
	}
}
