package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

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
	o := liveOptions{c: 4, seed: 1, hosts: 45, partitions: 3, workers: 2,
		cacheCap: 32, segDocs: 32, mergeWorkers: 2, deadline: 1000}
	h, crawl, err := newLive(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The query: the leading words of a seed page, as the crawl will
	// tokenize them.
	wcfg := simweb.DefaultConfig()
	wcfg.Seed, wcfg.Hosts = o.seed, o.hosts
	web := simweb.New(wcfg)
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
