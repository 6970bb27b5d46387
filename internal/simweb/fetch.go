package simweb

import (
	"math/rand"
	"strconv"
	"strings"

	"dwr/internal/randx"
)

// HTTP-ish status codes the simulated servers return.
const (
	StatusOK          = 200
	StatusNotModified = 304
	StatusNotFound    = 404
	StatusUnavailable = 503
)

// FetchResult is the outcome of fetching one URL on a given virtual day.
type FetchResult struct {
	Status       int
	HTML         string
	LastModified int     // virtual day of the page's last change
	LatencyMs    float64 // simulated server response time
}

// Fetch serves url as the Web server would on virtual day `day`. If
// ifModifiedSince >= 0 and the page has not changed since that day, a
// conforming host answers 304 with no body; a non-conforming host ignores
// the header (a real-world failure mode Section 3 calls out). Flaky hosts
// fail transiently with 503. rng drives the transient behaviour only —
// page content is deterministic.
func (w *Web) Fetch(rng *rand.Rand, url string, day, ifModifiedSince int) FetchResult {
	host, path, ok := SplitURL(url)
	if !ok {
		return FetchResult{Status: StatusNotFound}
	}
	h := w.HostByName(host)
	if h == nil {
		return FetchResult{Status: StatusNotFound}
	}
	latency := h.LatencyMs * randx.LogNormal(rng, 0, 0.3)
	if h.Flaky && randx.Bernoulli(rng, flakyFailProb) {
		return FetchResult{Status: StatusUnavailable, LatencyMs: latency * 3}
	}
	var page *Page
	for _, pid := range h.Pages {
		if w.Pages[pid].Path == path {
			page = w.Pages[pid]
			break
		}
	}
	if page == nil {
		return FetchResult{Status: StatusNotFound, LatencyMs: latency}
	}
	lastMod := w.LastModified(page.ID, day)
	if ifModifiedSince >= 0 && !h.NonConforming && lastMod <= ifModifiedSince {
		return FetchResult{Status: StatusNotModified, LastModified: lastMod, LatencyMs: latency * 0.3}
	}
	return FetchResult{
		Status:       StatusOK,
		HTML:         w.RenderHTML(page.ID, lastMod),
		LastModified: lastMod,
		LatencyMs:    latency,
	}
}

// LastModified returns the most recent virtual day ≤ day on which the
// page changed (0 = creation). The change process is a deterministic
// function of (pageID, day) so fetch needs no mutable state: the page
// changed on day d iff a hash of (pageID, d) falls below its ChangeRate.
func (w *Web) LastModified(pageID, day int) int {
	p := w.Pages[pageID]
	for d := day; d > 0; d-- {
		if pageChangedOn(pageID, d, p.ChangeRate) {
			return d
		}
	}
	return 0
}

// pageChangedOn hashes (pageID, day) into [0,1) and compares with rate.
func pageChangedOn(pageID, day int, rate float64) bool {
	x := uint64(pageID)*0x9e3779b97f4a7c15 ^ uint64(day)*0xc2b2ae3d27d4eb4f
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x>>11)/float64(1<<53) < rate
}

// malformedTail is what a malformed host writes in place of "</p>": a
// bare ampersand, a misspelt entity and a paragraph never closed.
const malformedTail = " fish & chips &nbp; <p>next para never closed"

// RenderHTML renders a page's HTML for the given revision day. Hosts
// flagged Malformed emit the kinds of markup breakage Section 3 warns
// about: unclosed tags, unquoted attributes, bare ampersands, and a
// truncated final tag. The visible words and links are the same either
// way — a tolerant parser recovers everything.
func (w *Web) RenderHTML(pageID, revision int) string {
	p := w.Pages[pageID]
	h := w.Hosts[p.Host]
	vocab := w.Vocabs[h.Lang]
	// Malformed hosts leave every third anchor unquoted and unclosed; an
	// even anchor to the same server is a relative link.
	broken := func(i int) bool { return h.Malformed && i%3 == 0 }
	absolute := func(i int, tp *Page) bool { return tp.Host != p.Host || i%2 != 0 }
	var num [20]byte
	digits := func(v int) int { return len(strconv.AppendInt(num[:0], int64(v), 10)) }

	// The page's exact length, so the builder allocates once.
	size := len("<html><head><title><h1><p>") + 2*(len(h.Name)+len(p.Path)+len("  rev")+digits(revision))
	if h.Malformed {
		size += len("<body>" + malformedTail + "<div>trunc")
	} else {
		size += len("</title></head><body></h1></p></body></html>")
	}
	for i, t := range p.Terms {
		if i > 0 {
			size++ // the separating space
		}
		size += len(vocab.Word(int(t)))
	}
	for i, target := range p.Links {
		tp := w.Pages[target]
		size += len("<a href=>link ") + len(tp.Path) + digits(i)
		if !broken(i) {
			size += len(`""</a>`)
		}
		if absolute(i, tp) {
			size += len("http://") + len(w.Hosts[tp.Host].Name)
		}
	}
	var b strings.Builder
	b.Grow(size)

	title := func() {
		b.WriteString(h.Name)
		b.WriteByte(' ')
		b.WriteString(p.Path)
		b.WriteString(" rev")
		b.Write(strconv.AppendInt(num[:0], int64(revision), 10))
	}
	b.WriteString("<html><head><title>")
	title()
	if h.Malformed {
		// Malformed: title never closed, head never closed.
		b.WriteString("<body>")
	} else {
		b.WriteString("</title></head><body>")
	}
	b.WriteString("<h1>")
	title()
	if !h.Malformed {
		b.WriteString("</h1>")
	}
	b.WriteString("<p>")
	for i, t := range p.Terms {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(vocab.Word(int(t)))
	}
	if h.Malformed {
		b.WriteString(malformedTail)
	} else {
		b.WriteString("</p>")
	}
	for i, target := range p.Links {
		tp := w.Pages[target]
		b.WriteString("<a href=")
		if !broken(i) {
			b.WriteByte('"')
		}
		if absolute(i, tp) {
			b.WriteString("http://")
			b.WriteString(w.Hosts[tp.Host].Name)
		}
		b.WriteString(tp.Path)
		if !broken(i) {
			b.WriteByte('"')
		}
		b.WriteString(">link ")
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
		if !broken(i) {
			b.WriteString("</a>")
		}
	}
	if h.Malformed {
		b.WriteString("<div>trunc") // page ends mid-markup
	} else {
		b.WriteString("</body></html>")
	}
	return b.String()
}

// Robots returns the robots.txt body for a host ("" if the host serves
// none). Hosts with robots disallow the /private/ prefix.
func (w *Web) Robots(hostName string) string {
	h := w.HostByName(hostName)
	if h == nil || !h.HasRobots {
		return ""
	}
	return "User-agent: *\nDisallow: /private/\nCrawl-delay: 1\n"
}

// SitemapEntry is one URL in a host's sitemap, with its last-modified
// day and estimated change rate — the "server-crawler cooperation"
// standard (sitemaps.org) the paper describes.
type SitemapEntry struct {
	URL        string
	LastMod    int
	ChangeRate float64
}

// Sitemap returns the sitemap for a host on the given day, or nil if the
// host exposes none. Private pages are not listed.
func (w *Web) Sitemap(hostName string, day int) []SitemapEntry {
	h := w.HostByName(hostName)
	if h == nil || !h.HasSitemap {
		return nil
	}
	var out []SitemapEntry
	for _, pid := range h.Pages {
		p := w.Pages[pid]
		if p.Private {
			continue
		}
		out = append(out, SitemapEntry{
			URL:        w.URL(pid),
			LastMod:    w.LastModified(pid, day),
			ChangeRate: p.ChangeRate,
		})
	}
	return out
}

// ResolveLink resolves an href found on baseURL into an absolute URL,
// handling the relative paths the renderer emits. It returns "" for
// hrefs it cannot resolve.
func ResolveLink(baseURL, href string) string {
	if href == "" {
		return ""
	}
	if strings.HasPrefix(href, "http://") || strings.HasPrefix(href, "https://") {
		return href
	}
	host, _, ok := SplitURL(baseURL)
	if !ok {
		return ""
	}
	if strings.HasPrefix(href, "/") {
		return "http://" + host + href
	}
	// Path-relative: resolve against the base directory (always "/" here).
	return "http://" + host + "/" + href
}
