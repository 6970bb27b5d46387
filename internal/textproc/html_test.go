package textproc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseHTMLBasic(t *testing.T) {
	doc := ParseHTML(`<html><head><title>My Page</title></head>
<body><h1>Hello</h1><p>Some <b>bold</b> text.</p>
<a href="http://a.example/x">link one</a>
<a href='/relative'>link two</a></body></html>`)
	for _, want := range []string{"Hello", "Some", "bold", "text", "link one"} {
		if !strings.Contains(doc.Text, want) {
			t.Errorf("text missing %q: %q", want, doc.Text)
		}
	}
	if len(doc.Links) != 2 || doc.Links[0] != "http://a.example/x" || doc.Links[1] != "/relative" {
		t.Errorf("links = %v", doc.Links)
	}
}

func TestParseHTMLMalformed(t *testing.T) {
	// Each of these is a class of real-world breakage the parser must
	// survive (paper §3: parsers must tolerate "all sort of errors").
	cases := []struct {
		name string
		in   string
	}{
		{"unclosed tags", "<p>one<p>two<b>three"},
		{"bare ampersand", "fish & chips & more"},
		{"truncated entity", "a &am b &nbsp c"},
		{"stray lt", "3 < 4 and 5 <6"},
		{"unterminated tag", "hello <a href="},
		{"unterminated comment", "x <!-- never closed"},
		{"attribute soup", `<a href = broken.html other="'">t</a>`},
		{"nested quotes", `<a href="a'b.html">t</a>`},
		{"empty", ""},
		{"only tags", "<html><body></body></html>"},
		{"binary junk", "\x00\x01\xff<p>ok</p>\xfe"},
		{"uppercase tags", "<P>UPPER <A HREF=UP.HTML>CASE</A></P>"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Must not panic, and must return something sensible.
			doc := ParseHTML(c.in)
			_ = doc
		})
	}
}

func TestParseHTMLMalformedStillExtracts(t *testing.T) {
	doc := ParseHTML("<p>one<p>two<b>three")
	for _, w := range []string{"one", "two", "three"} {
		if !strings.Contains(doc.Text, w) {
			t.Errorf("text missing %q: %q", w, doc.Text)
		}
	}
	doc = ParseHTML("<P>UPPER <A HREF=up.html>CASE</A>")
	if len(doc.Links) != 1 || doc.Links[0] != "up.html" {
		t.Errorf("unquoted uppercase href not extracted: %v", doc.Links)
	}
}

func TestParseHTMLSkipsScriptAndStyle(t *testing.T) {
	doc := ParseHTML(`<p>visible</p><script>var hidden = "secret";</script><style>.x{color:red}</style><p>more</p>`)
	if strings.Contains(doc.Text, "secret") || strings.Contains(doc.Text, "color") {
		t.Errorf("script/style leaked into text: %q", doc.Text)
	}
	if !strings.Contains(doc.Text, "visible") || !strings.Contains(doc.Text, "more") {
		t.Errorf("visible text lost: %q", doc.Text)
	}
}

func TestParseHTMLComments(t *testing.T) {
	doc := ParseHTML("before<!-- hidden <a href=x>no</a> -->after")
	if strings.Contains(doc.Text, "hidden") {
		t.Errorf("comment leaked into text: %q", doc.Text)
	}
	if len(doc.Links) != 0 {
		t.Errorf("links found inside comment: %v", doc.Links)
	}
	if !strings.Contains(doc.Text, "before") || !strings.Contains(doc.Text, "after") {
		t.Errorf("text around comment lost: %q", doc.Text)
	}
}

func TestParseHTMLNeverPanics(t *testing.T) {
	f := func(s string) bool {
		ParseHTML(s) // success == not panicking
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a &amp; b", "a & b"},
		{"&lt;tag&gt;", "<tag>"},
		{"&quot;q&quot;", `"q"`},
		{"no entities", "no entities"},
		{"&unknown;", "&unknown;"},
		{"&toolongentityname;", "&toolongentityname;"},
		{"trailing &", "trailing &"},
		{"&nbsp;x", " x"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAttrValue(t *testing.T) {
	cases := []struct {
		attrs, name, want string
		ok                bool
	}{
		{`href="x.html"`, "href", "x.html", true},
		{`href='x.html'`, "href", "x.html", true},
		{`href=x.html`, "href", "x.html", true},
		{`class="c" href="y"`, "href", "y", true},
		{`href = "spaced"`, "href", "spaced", true},
		{`xhref="no"`, "href", "", false},
		{`nothing="here"`, "href", "", false},
		{`href="unterminated`, "href", "unterminated", true},
	}
	for _, c := range cases {
		got, ok := attrValue(c.attrs, c.name)
		if got != c.want || ok != c.ok {
			t.Errorf("attrValue(%q, %q) = (%q, %v), want (%q, %v)", c.attrs, c.name, got, ok, c.want, c.ok)
		}
	}
}
