package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/rank"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// TestParseOptions: the defaults name the static mode, -live and
// -federate pick theirs, and a size below its floor is a usage error
// naming the flag. -federate -partitions 0 used to divide by zero in
// partition.RoundRobinDocs, -sites 0 after crawling the whole corpus;
// static -partitions 0 served one partition and -segdocs 0 sealed every
// 512 documents.
func TestParseOptions(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		mode   string // "" for a usage error
		stderr string // a substring stderr must hold
	}{
		{args: nil, mode: "static"},
		{args: []string{"-live", "-segdocs", "1"}, mode: "live"},
		{args: []string{"-federate", "-sites", "1", "-sampleevery", "0", "-cachecap", "0"}, mode: "federated"},
		{args: []string{"-federate", "-partitions", "0"}, stderr: "-partitions must be at least 1, got 0"},
		{args: []string{"-partitions", "-2"}, stderr: "-partitions must be at least 1, got -2"},
		{args: []string{"-hosts", "0"}, stderr: "-hosts must be at least 1, got 0"},
		{args: []string{"-c", "0"}, stderr: "-c must be at least 1, got 0"},
		{args: []string{"-live", "-segdocs", "0"}, stderr: "-segdocs must be at least 1, got 0"},
		{args: []string{"-federate", "-sites", "0"}, stderr: "-sites must be at least 1, got 0"},
		{args: []string{"-federate", "-sites", "-1"}, stderr: "-sites must be at least 1, got -1"},
		{args: []string{"-cachecap", "-1"}, stderr: "-cachecap must be at least 0, got -1"},
		{args: []string{"-sampleevery", "-1"}, stderr: "-sampleevery must be at least 0, got -1"},
		{args: []string{"-deadline", "5", "-admitrate", "100", "-admitburst", "0", "-shedtarget", "50"}, mode: "static"},
		{args: []string{"-admitrate", "NaN"}, stderr: "-admitrate must be a finite number at least 0, got NaN"},
		{args: []string{"-shedtarget", "NaN"}, stderr: "-shedtarget must be a finite number at least 0, got NaN"},
		{args: []string{"-deadline", "-1"}, stderr: "-deadline must be a finite number at least 0, got -1"},
		{args: []string{"-admitrate", "-0.5"}, stderr: "-admitrate must be a finite number at least 0, got -0.5"},
		{args: []string{"-admitburst", "-3"}, stderr: "-admitburst must be a finite number at least 0, got -3"},
		{args: []string{"-shedtarget", "-10"}, stderr: "-shedtarget must be a finite number at least 0, got -10"},
		{args: []string{"-deadline", "Inf"}, stderr: "-deadline must be a finite number at least 0, got +Inf"},
		{args: []string{"-admitburst", "-Inf"}, stderr: "-admitburst must be a finite number at least 0, got -Inf"},
		{args: []string{"-nosuchflag"}, stderr: "flag provided but not defined: -nosuchflag"},
	} {
		var stderr bytes.Buffer
		_, mode, err := parseOptions(tc.args, &stderr)
		if mode != tc.mode || (err == nil) != (tc.mode != "") {
			t.Errorf("%v: mode %q, err %v; want mode %q", tc.args, mode, err, tc.mode)
		}
		if !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("%v: stderr %q, want %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

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
// the queries. The engine behind it evaluates with MaxScore pruning and
// threshold sharing, and what it serves is still bit for bit the
// exhaustive per-partition evaluation of the sealed manifests, merged.
func TestLiveServesTheCrawl(t *testing.T) {
	o := options{c: 4, seed: 1, hosts: 45, partitions: 3,
		cacheCap: 32, segDocs: 32, deadline: 1000}
	h, live, crawl, err := newLive(o)
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
	seedFound := false
	for _, r := range found.Results {
		if r.URL != web.URL(r.Doc) {
			t.Fatalf("doc %d resolved to %q, want %q", r.Doc, r.URL, web.URL(r.Doc))
		}
		seedFound = seedFound || r.Doc == seedPage
	}
	if !seedFound {
		t.Fatalf("%d results for %v, the seed page %d not among them", len(found.Results), words[:2], seedPage)
	}

	// Each host's front page names a query. The engine answers it first,
	// so /search serves that answer from the result cache.
	const k = 10
	var views []*index.Manifest
	for _, st := range live.Stores() {
		views = append(views, st.Manifest())
	}
	maxWaves := 0
	for _, host := range web.Hosts {
		front := textproc.Tokenize(textproc.ParseHTML(web.RenderHTML(host.Pages[0], 0)).Text)
		terms := front[:min(2, len(front))]
		maxWaves = max(maxWaves, live.Query.QueryTopK(terms, k).Waves)
		stats := make([]index.Stats, len(views))
		for p, v := range views {
			stats[p] = v.LocalStats(terms)
		}
		scorer := rank.NewScorer(rank.FromGlobal(index.MergeStats(stats...)))
		lists := make([][]rank.Result, len(views))
		for p, v := range views {
			lists[p], _ = rank.EvaluateView(v, scorer, terms, k, rank.PruneNone, 0)
		}
		want := rank.MergeResults(k, lists...)

		var got struct{ Results []hit }
		text := strings.Join(terms, " ")
		getJSON(t, srv, fmt.Sprintf("/search?k=%d&q=%s", k, url.QueryEscape(text)), &got)
		if len(got.Results) != len(want) || len(want) == 0 {
			t.Fatalf("%q: %d results, the exhaustive oracle has %d", text, len(got.Results), len(want))
		}
		for j, w := range want {
			if g := got.Results[j]; g.Doc != w.Doc || g.Score != w.Score || g.URL != web.URL(w.Doc) {
				t.Fatalf("%q rank %d: served %+v, oracle %+v", text, j, g, w)
			}
		}
	}
	if maxWaves < 2 {
		t.Fatalf("no query ran the threshold-shared schedule: at most %d wave", maxWaves)
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
	if served := int64(2 + len(web.Hosts)); stats.Served != served || stats.EngineQueries == 0 || stats.Units != o.partitions {
		t.Fatalf("stats: %+v, want %d served, engine queries counted, %d units", stats, served, o.partitions)
	}
}

// TestModesServeTheSameCorpus: the same -seed and -hosts name one web and
// one crawl of it whichever mode serves them — -live fetches and indexes
// exactly the pages the static build does, with the same text under the
// same URLs. (-live used to start from simweb's defaults and static
// from core's: other page caps, another vocabulary.)
func TestModesServeTheSameCorpus(t *testing.T) {
	o := options{c: 4, seed: 3, hosts: 30, partitions: 3,
		segDocs: 32, deadline: 1000}
	_, eng, err := newStatic(o)
	if err != nil {
		t.Fatal(err)
	}
	h, _, crawl, err := newLive(o)
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
	o := options{c: 4, seed: 1, hosts: 45, partitions: 3, deadline: 1000}
	h, eng, err := newStatic(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	const k = 10
	scorer := rank.NewScorer(rank.FromGlobal(eng.Query.GlobalStats()))
	lists := make([][]rank.Result, eng.Query.K())
	maxWaves := 0
	for i := 0; i < len(eng.Docs); i += len(eng.Docs) / 25 {
		text := leadingWords(eng.Docs[i])
		terms := textproc.Tokenize(text)
		// Single-wave evaluation never reports a second wave.
		maxWaves = max(maxWaves, eng.Query.QueryTopK(terms, k).Waves)
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
	if maxWaves < 2 {
		t.Fatalf("no query ran the threshold-shared schedule: at most %d wave", maxWaves)
	}
}

// TestFederateServesMediatedAnswers drives the -federate wiring: the
// mediator is on the serving path and every site is a unit. -deadline
// is the front-end's wall budget; TestEveryModeServesWithinAWallBudget
// holds -federate to it.
func TestFederateServesMediatedAnswers(t *testing.T) {
	o := options{c: 4, seed: 1, hosts: 45, partitions: 2,
		sites: 3, sampleEvery: 2, deadline: 100000}
	h, eng, err := newFederate(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < len(eng.Docs); i += len(eng.Docs) / 12 {
		// Queries from region 0 for a page some other site holds:
		// the answer crosses the WAN, tens of modelled ms.
		if hostSite(eng.URLOf(eng.Docs[i].Ext), o.sites) == 0 {
			continue
		}
		var got struct {
			Status  string
			Results []hit
		}
		path := "/search?q=" + url.QueryEscape(leadingWords(eng.Docs[i]))
		if code := getJSON(t, srv, path, &got); code != http.StatusOK || got.Status != "ok" || len(got.Results) == 0 {
			t.Fatalf("%s: HTTP %d, status %q, %d results; want 200 ok with results",
				path, code, got.Status, len(got.Results))
		}
	}
	var stats struct {
		Selection struct{ Queries int }
	}
	getJSON(t, srv, "/stats", &stats)
	var health struct{ Units int }
	getJSON(t, srv, "/healthz", &health)
	if stats.Selection.Queries == 0 || health.Units != o.sites {
		t.Fatalf("selection.queries = %d, units = %d; want mediated queries over %d sites",
			stats.Selection.Queries, health.Units, o.sites)
	}
}

// TestFederateAnswersAnUnknownWord: a word no site holds is an empty
// answer, served with 200. Every site engine shares thresholds, skips
// each of its partitions and contacts none; the federation used to read
// that as every site down and answer 502.
func TestFederateAnswersAnUnknownWord(t *testing.T) {
	o := options{c: 4, seed: 1, hosts: 45, partitions: 2, sites: 3, deadline: 100000}
	h, _, err := newFederate(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	var got struct {
		Status  string
		Results []hit
	}
	if code := getJSON(t, srv, "/search?q=zzqxnotaword", &got); code != http.StatusOK || got.Status != "ok" || len(got.Results) != 0 {
		t.Fatalf("unknown word: HTTP %d, status %q, %d results; want 200 \"ok\" and none", code, got.Status, len(got.Results))
	}
}

// TestEveryModeServesWithinAWallBudget: -deadline is the front-end's
// own wall-clock budget, never charged with the engine's modelled
// latency. Set to ten times the round trip measured without a deadline,
// and never below 100 ms so a GC pause or a slow scheduler cannot
// spend it, a matching query answers 200 with results in every mode.
// -federate's query needs a remote site, whose answer the cost model
// puts at 127 to 251 ms over the WAN: above the budget it is not
// charged against.
func TestEveryModeServesWithinAWallBudget(t *testing.T) {
	o := options{c: 4, seed: 1, hosts: 45, partitions: 3, segDocs: 32, sites: 3}
	corpus, err := core.Crawl(corpusConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, d := range corpus.Docs {
		if hostSite(corpus.URLOf(d.Ext), o.sites) != 0 {
			path = "/search?q=" + url.QueryEscape(leadingWords(d))
			break
		}
	}
	modes := []struct {
		name  string
		build func(options) (http.Handler, error)
	}{
		{"static", func(o options) (http.Handler, error) {
			h, _, err := newStatic(o)
			return h, err
		}},
		{"live", func(o options) (http.Handler, error) {
			h, _, crawl, err := newLive(o)
			if err == nil {
				crawl()
			}
			return h, err
		}},
		{"federate", func(o options) (http.Handler, error) {
			h, _, err := newFederate(o)
			return h, err
		}},
	}
	for _, m := range modes {
		// serve answers path five times under -deadline d, each a 200 ok
		// with results when d is set, and returns the slowest round trip.
		serve := func(d float64) (rtt time.Duration) {
			o.deadline = d
			h, err := m.build(o)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(h)
			defer srv.Close()
			for i := 0; i < 5; i++ {
				var got struct {
					Status  string
					Results []hit
				}
				start := time.Now()
				code := getJSON(t, srv, path, &got)
				rtt = max(rtt, time.Since(start))
				if d > 0 && (code != http.StatusOK || got.Status != "ok" || len(got.Results) == 0) {
					t.Errorf("%s, -deadline %.2f, %s: HTTP %d, status %q, %d results; want 200 ok with results",
						m.name, d, path, code, got.Status, len(got.Results))
				}
			}
			return rtt
		}
		rtt := serve(0)
		serve(max(10*float64(rtt)/float64(time.Millisecond), 100))
	}
}
