package simweb

import (
	"sort"
	"strings"
	"testing"

	"dwr/internal/randx"
	"dwr/internal/textproc"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 60
	cfg.MaxPages = 80
	cfg.VocabSize = 2000
	return cfg
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := New(smallConfig()), New(smallConfig())
	if len(a.Pages) != len(b.Pages) || len(a.Hosts) != len(b.Hosts) {
		t.Fatalf("sizes differ: %d/%d pages, %d/%d hosts", len(a.Pages), len(b.Pages), len(a.Hosts), len(b.Hosts))
	}
	for i := range a.Pages {
		pa, pb := a.Pages[i], b.Pages[i]
		if pa.Path != pb.Path || pa.Topic != pb.Topic || len(pa.Terms) != len(pb.Terms) || len(pa.Links) != len(pb.Links) {
			t.Fatalf("page %d differs between same-seed webs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	cfg.Seed = 2
	b := New(cfg)
	if len(a.Pages) == len(b.Pages) {
		same := true
		for i := range a.Pages {
			if a.Pages[i].Path != b.Pages[i].Path || len(a.Pages[i].Terms) != len(b.Pages[i].Terms) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical webs")
		}
	}
}

func TestInDegreePowerLaw(t *testing.T) {
	w := New(smallConfig())
	degrees := make([]int, 0, len(w.Pages))
	for _, p := range w.Pages {
		degrees = append(degrees, p.InDegree)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	total := 0
	for _, d := range degrees {
		total += d
	}
	if total == 0 {
		t.Fatal("no links generated")
	}
	// Heavy tail: the top 10% of pages should hold a clear majority of
	// in-links (for a power law, typically > 50%).
	topN := len(degrees) / 10
	topSum := 0
	for _, d := range degrees[:topN] {
		topSum += d
	}
	if frac := float64(topSum) / float64(total); frac < 0.35 {
		t.Fatalf("top 10%% of pages hold only %.1f%% of in-links; distribution not heavy-tailed", frac*100)
	}
}

func TestLinkLocality(t *testing.T) {
	w := New(smallConfig())
	local, total := 0, 0
	for _, p := range w.Pages {
		for _, l := range p.Links {
			total++
			if w.Pages[l].Host == p.Host {
				local++
			}
		}
	}
	frac := float64(local) / float64(total)
	// Locality parameter plus incidental same-host preferential links.
	if frac < 0.5 || frac > 0.95 {
		t.Fatalf("intra-host link fraction = %.2f, want around linkLocality = %.2f", frac, linkLocality)
	}
}

func TestURLRoundTrip(t *testing.T) {
	w := New(smallConfig())
	for _, pid := range []int{0, len(w.Pages) / 2, len(w.Pages) - 1} {
		url := w.URL(pid)
		if got := w.PageByURL(url); got != pid {
			t.Fatalf("PageByURL(URL(%d)) = %d", pid, got)
		}
	}
	if got := w.PageByURL("http://nosuch.example/x.html"); got != -1 {
		t.Fatalf("unknown URL resolved to %d", got)
	}
	if got := w.PageByURL("ftp://bad"); got != -1 {
		t.Fatalf("malformed URL resolved to %d", got)
	}
}

func TestSplitURL(t *testing.T) {
	cases := []struct {
		in         string
		host, path string
		ok         bool
	}{
		{"http://a.example/p.html", "a.example", "/p.html", true},
		{"http://a.example", "a.example", "/", true},
		{"https://x/y", "", "", false},
		{"junk", "", "", false},
	}
	for _, c := range cases {
		h, p, ok := SplitURL(c.in)
		if h != c.host || p != c.path || ok != c.ok {
			t.Errorf("SplitURL(%q) = (%q,%q,%v), want (%q,%q,%v)", c.in, h, p, ok, c.host, c.path, c.ok)
		}
	}
}

func TestFetchOKAndParseable(t *testing.T) {
	w := New(smallConfig())
	rng := randx.New(9)
	okCount := 0
	for pid := 0; pid < len(w.Pages) && okCount < 50; pid += 7 {
		res := w.Fetch(rng, w.URL(pid), 10, -1)
		if res.Status == StatusUnavailable {
			continue // flaky host; allowed
		}
		if res.Status != StatusOK {
			t.Fatalf("Fetch(%s) status %d", w.URL(pid), res.Status)
		}
		okCount++
		doc := textproc.ParseHTML(res.HTML)
		if doc.Text == "" {
			t.Fatalf("page %d produced empty text", pid)
		}
		// Every link in the page must resolve to a real page (the
		// generator never emits dangling links).
		for _, href := range doc.Links {
			abs := ResolveLink(w.URL(pid), href)
			if w.PageByURL(abs) == -1 {
				t.Fatalf("page %d has unresolvable link %q -> %q", pid, href, abs)
			}
		}
	}
	if okCount == 0 {
		t.Fatal("no successful fetches")
	}
}

func TestFetchMalformedHostStillYieldsLinks(t *testing.T) {
	w := New(smallConfig())
	rng := randx.New(4)
	checked := false
	for _, h := range w.Hosts {
		if !h.Malformed || h.Flaky || len(h.Pages) == 0 {
			continue
		}
		pid := h.Pages[0]
		p := w.Pages[pid]
		if len(p.Links) == 0 {
			continue
		}
		res := w.Fetch(rng, w.URL(pid), 1, -1)
		if res.Status != StatusOK {
			continue
		}
		doc := textproc.ParseHTML(res.HTML)
		if len(doc.Links) != len(p.Links) {
			t.Fatalf("malformed page %d: parser found %d links, want %d", pid, len(doc.Links), len(p.Links))
		}
		checked = true
		break
	}
	if !checked {
		t.Skip("no malformed host with links in this configuration")
	}
}

func TestFetch404(t *testing.T) {
	w := New(smallConfig())
	rng := randx.New(2)
	res := w.Fetch(rng, "http://"+w.Hosts[0].Name+"/nosuch.html", 1, -1)
	if res.Status != StatusNotFound {
		t.Fatalf("status = %d, want 404", res.Status)
	}
}

func TestFetchIfModifiedSince(t *testing.T) {
	w := New(smallConfig())
	rng := randx.New(3)
	var conforming *Host
	for _, h := range w.Hosts {
		if !h.NonConforming && !h.Flaky && len(h.Pages) > 0 {
			conforming = h
			break
		}
	}
	if conforming == nil {
		t.Fatal("no conforming host")
	}
	pid := conforming.Pages[0]
	url := w.URL(pid)
	day := 30
	lastMod := w.LastModified(pid, day)
	res := w.Fetch(rng, url, day, lastMod) // nothing newer
	if res.Status != StatusNotModified {
		t.Fatalf("conforming host returned %d for fresh If-Modified-Since, want 304", res.Status)
	}
	if res.HTML != "" {
		t.Fatal("304 response carried a body")
	}
	res = w.Fetch(rng, url, day, -1)
	if res.Status != StatusOK || res.HTML == "" {
		t.Fatalf("unconditional fetch: status %d, body %d bytes", res.Status, len(res.HTML))
	}
}

func TestNonConformingHostIgnoresHeader(t *testing.T) {
	w := New(smallConfig())
	rng := randx.New(3)
	for _, h := range w.Hosts {
		if h.NonConforming && !h.Flaky && len(h.Pages) > 0 {
			pid := h.Pages[0]
			res := w.Fetch(rng, w.URL(pid), 30, 30)
			if res.Status != StatusOK {
				t.Fatalf("non-conforming host returned %d, want 200 (it ignores If-Modified-Since)", res.Status)
			}
			return
		}
	}
	t.Skip("no non-conforming host in this configuration")
}

func TestChangeProcessDeterministicAndMonotone(t *testing.T) {
	w := New(smallConfig())
	for _, pid := range []int{1, 11, 101} {
		if pid >= len(w.Pages) {
			continue
		}
		a, b := w.LastModified(pid, 50), w.LastModified(pid, 50)
		if a != b {
			t.Fatalf("LastModified not deterministic: %d vs %d", a, b)
		}
		prev := 0
		for day := 0; day <= 60; day += 5 {
			lm := w.LastModified(pid, day)
			if lm < prev || lm > day {
				t.Fatalf("LastModified(%d, %d) = %d, prev %d: not monotone in-range", pid, day, lm, prev)
			}
			prev = lm
		}
	}
}

func TestRobots(t *testing.T) {
	w := New(smallConfig())
	sawRobots, sawNone := false, false
	for _, h := range w.Hosts {
		body := w.Robots(h.Name)
		if h.HasRobots {
			if !strings.Contains(body, "Disallow: /private/") {
				t.Fatalf("host %s robots.txt missing disallow: %q", h.Name, body)
			}
			sawRobots = true
		} else {
			if body != "" {
				t.Fatalf("host %s without robots served %q", h.Name, body)
			}
			sawNone = true
		}
	}
	if !sawRobots || !sawNone {
		t.Fatal("configuration produced no robots diversity")
	}
}

func TestSitemapExcludesPrivate(t *testing.T) {
	w := New(smallConfig())
	for _, h := range w.Hosts {
		entries := w.Sitemap(h.Name, 10)
		if !h.HasSitemap {
			if entries != nil {
				t.Fatalf("host without sitemap returned %d entries", len(entries))
			}
			continue
		}
		for _, e := range entries {
			if strings.Contains(e.URL, "/private/") {
				t.Fatalf("sitemap lists private URL %s", e.URL)
			}
		}
	}
}

func TestMostCitedSorted(t *testing.T) {
	w := New(smallConfig())
	top := w.MostCited(20)
	if len(top) != 20 {
		t.Fatalf("MostCited(20) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if w.Pages[top[i-1]].InDegree < w.Pages[top[i]].InDegree {
			t.Fatal("MostCited not sorted by in-degree")
		}
	}
}

func TestLanguageIdentifiableContent(t *testing.T) {
	// Generated text in different languages must be distinguishable by
	// the n-gram identifier, or the §5 language-routing experiment is
	// meaningless.
	cfg := smallConfig()
	w := New(cfg)
	var profiles []*textproc.LangProfile
	for _, lang := range cfg.Languages {
		var sample strings.Builder
		count := 0
		for _, h := range w.Hosts {
			if h.Lang != lang || len(h.Pages) == 0 {
				continue
			}
			p := w.Pages[h.Pages[0]]
			for _, tid := range p.Terms[:min(len(p.Terms), 100)] {
				sample.WriteString(w.Vocabs[lang].Word(int(tid)))
				sample.WriteByte(' ')
			}
			count++
			if count > 5 {
				break
			}
		}
		profiles = append(profiles, textproc.NewLangProfile(lang, sample.String()))
	}
	li := textproc.NewLangIdentifier(profiles...)
	correct, total := 0, 0
	for i := len(w.Hosts) - 1; i >= 0 && total < 30; i-- {
		h := w.Hosts[i]
		if len(h.Pages) == 0 {
			continue
		}
		p := w.Pages[h.Pages[len(h.Pages)-1]]
		var text strings.Builder
		for _, tid := range p.Terms[:min(len(p.Terms), 80)] {
			text.WriteString(w.Vocabs[h.Lang].Word(int(tid)))
			text.WriteByte(' ')
		}
		if li.Identify(text.String()) == h.Lang {
			correct++
		}
		total++
	}
	if total == 0 {
		t.Fatal("no hosts sampled")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("language identification accuracy %.2f on generated text, want ≥ 0.8", acc)
	}
}

func TestVocabularyRoundTrip(t *testing.T) {
	// Distinct words make Word invertible: no two term IDs merge.
	v := NewVocabulary("en", 500)
	ids := map[string]int{}
	for id := 0; id < 500; id++ {
		w := v.Word(id)
		if prev, dup := ids[w]; dup {
			t.Fatalf("Word(%d) = Word(%d) = %q", id, prev, w)
		}
		ids[w] = id
	}
}

func TestCrawlablePages(t *testing.T) {
	w := New(smallConfig())
	n := w.CrawlablePages()
	if n <= 0 || n > len(w.Pages) {
		t.Fatalf("CrawlablePages = %d of %d", n, len(w.Pages))
	}
	priv := 0
	for _, p := range w.Pages {
		if p.Private {
			priv++
		}
	}
	if n+priv != len(w.Pages) {
		t.Fatalf("crawlable %d + private %d != total %d", n, priv, len(w.Pages))
	}
}

func TestResolveLink(t *testing.T) {
	cases := []struct{ base, href, want string }{
		{"http://a.example/x.html", "http://b.example/y.html", "http://b.example/y.html"},
		{"http://a.example/x.html", "/y.html", "http://a.example/y.html"},
		{"http://a.example/x.html", "y.html", "http://a.example/y.html"},
		{"http://a.example/x.html", "", ""},
		{"junk", "/y.html", ""},
	}
	for _, c := range cases {
		if got := ResolveLink(c.base, c.href); got != c.want {
			t.Errorf("ResolveLink(%q, %q) = %q, want %q", c.base, c.href, got, c.want)
		}
	}
}
