package simweb

import (
	"fmt"
	"strings"
	"testing"
)

// TestRenderHTMLMatchesFmtRenderer holds RenderHTML to fmtRenderHTML,
// the fmt-based renderer it replaced, byte for byte: every page of a
// small web (malformed hosts included) at revisions 0 and 3.
func TestRenderHTMLMatchesFmtRenderer(t *testing.T) {
	w := New(smallConfig())
	malformed, links := 0, 0
	for _, h := range w.Hosts {
		if h.Malformed {
			malformed += len(h.Pages)
		}
	}
	for _, p := range w.Pages {
		links += len(p.Links)
	}
	if malformed == 0 || links == 0 {
		t.Fatalf("%d malformed pages and %d links: the web does not exercise every branch", malformed, links)
	}
	for _, rev := range []int{0, 3} {
		for _, p := range w.Pages {
			if got, want := w.RenderHTML(p.ID, rev), fmtRenderHTML(w, p.ID, rev); got != want {
				t.Fatalf("page %d (malformed host %v) at revision %d:\ngot  %q\nwant %q", p.ID, w.Hosts[p.Host].Malformed, rev, got, want)
			}
		}
	}
}

// TestRenderHTMLAllocatesOnce: RenderHTML sizes its builder to the page
// before writing, so every page of a small web (malformed hosts
// included) renders in one allocation, the string it returns.
func TestRenderHTMLAllocatesOnce(t *testing.T) {
	w := New(smallConfig())
	short := 0
	for _, p := range w.Pages {
		if n := testing.AllocsPerRun(1, func() { w.RenderHTML(p.ID, 3) }); n != 1 {
			short++
		}
	}
	if short > 0 {
		t.Fatalf("%d of %d pages render in more than one allocation", short, len(w.Pages))
	}
}

// fmtRenderHTML is RenderHTML as it was written with fmt.
func fmtRenderHTML(w *Web, pageID, revision int) string {
	p := w.Pages[pageID]
	h := w.Hosts[p.Host]
	vocab := w.Vocabs[h.Lang]
	var b strings.Builder
	title := fmt.Sprintf("%s %s rev%d", h.Name, p.Path, revision)
	if h.Malformed {
		b.WriteString("<html><head><title>")
		b.WriteString(title)
		b.WriteString("<body>")
	} else {
		b.WriteString("<html><head><title>")
		b.WriteString(title)
		b.WriteString("</title></head><body>")
	}
	b.WriteString("<h1>")
	b.WriteString(title)
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
		b.WriteString(" fish & chips &nbp; <p>next para never closed")
	} else {
		b.WriteString("</p>")
	}
	for i, target := range p.Links {
		tp := w.Pages[target]
		var href string
		if tp.Host == p.Host && i%2 == 0 {
			href = tp.Path
		} else {
			href = "http://" + w.Hosts[tp.Host].Name + tp.Path
		}
		if h.Malformed && i%3 == 0 {
			fmt.Fprintf(&b, `<a href=%s>link %d`, href, i)
		} else {
			fmt.Fprintf(&b, `<a href="%s">link %d</a>`, href, i)
		}
	}
	if h.Malformed {
		b.WriteString("<div>trunc")
	} else {
		b.WriteString("</body></html>")
	}
	return b.String()
}
