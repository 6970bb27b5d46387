package textproc

import (
	"slices"
	"strings"
	"testing"
)

// Fuzz targets: the crawler feeds these parsers whatever the Web throws
// at it, so they must never panic and must keep their basic contracts on
// arbitrary input. `go test` runs the seed corpus; `go test -fuzz=Fuzz...`
// explores further.

// FuzzParseHTML: ParseHTML returns the text and links of the parser
// that collapsed whitespace in a second pass (oracleParseHTML) byte for
// byte, Links(raw) returns its links, and no link is empty.
func FuzzParseHTML(f *testing.F) {
	seeds := []string{
		"",
		"<html><body>hello</body></html>",
		"<p>one<p>two<b>three",
		"<a href=broken>x",
		"x <!-- never closed",
		"<script>evil()</script>visible",
		"<style><a href=hidden></style><a href=shown>x</a>",
		"<A HREF='a'>t</A><a href=\"b\">u</a><a href=c>v</a>",
		"\x00\xff<title>bin</title>",
		"&amp;&nosuch;&",
		"<><<>><tag attr==val>",
		"<A 000000000\xff00 href>", // ToLower once grew the \xff and misplaced href
		// Unicode spaces are text inside, trimmed only at the edges.
		"\v\fone \v two\f\v",
		"\u00a0one\u00a0\u0085two \u0085",
		"\u0085 <p> x \u00a0",
		"&nbsp;&nbsp;a&nbsp; &nbsp;&nbsp;b&nbsp;&nbsp;",
		"<div>first last</div>",
		"<br>  a \t\r\n b  <li>",
		" \t\r\n ",
		"<p> <br> </p>",
		"a <b> </b> b<i>c</i> \n<p>\nd",
		"x&nbsp;<p>&nbsp;y&amp;&nbsp;<!-- c --> &nbsp;z",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		doc, want := ParseHTML(raw), oracleParseHTML(raw)
		if doc.Text != want.Text {
			t.Fatalf("ParseHTML(%q).Text = %q, want %q", raw, doc.Text, want.Text)
		}
		if !slices.Equal(doc.Links, want.Links) {
			t.Fatalf("ParseHTML(%q).Links = %q, want %q", raw, doc.Links, want.Links)
		}
		if links := Links(raw); !slices.Equal(links, want.Links) {
			t.Fatalf("Links(%q) = %q, want %q", raw, links, want.Links)
		}
		for _, l := range doc.Links {
			if l == "" {
				t.Fatal("empty link extracted")
			}
		}
	})
}

// oracleParseHTML is ParseHTML as it was before it collapsed whitespace
// as it wrote: the whole text in a strings.Builder, then oracleCollapseSpace,
// then strings.TrimSpace.
func oracleParseHTML(raw string) Document {
	var doc Document
	var text strings.Builder

	i := 0
	n := len(raw)
	skipUntil := ""

	for i < n {
		c := raw[i]
		if c != '<' {
			j := strings.IndexByte(raw[i:], '<')
			var chunk string
			if j < 0 {
				chunk = raw[i:]
				i = n
			} else {
				chunk = raw[i : i+j]
				i += j
			}
			if skipUntil == "" {
				text.WriteString(DecodeEntities(chunk))
			}
			continue
		}
		end := strings.IndexByte(raw[i:], '>')
		if end < 0 {
			break
		}
		tag := raw[i+1 : i+end]
		i += end + 1

		name, attrs, closing := splitTag(tag)
		if name == "" {
			continue
		}
		if strings.HasPrefix(name, "!--") {
			endc := strings.Index(raw[i:], "-->")
			if endc < 0 {
				break
			}
			i += endc + 3
			continue
		}
		if skipUntil != "" {
			if closing && name == skipUntil {
				skipUntil = ""
			}
			continue
		}
		switch name {
		case "script", "style":
			if !closing {
				skipUntil = name
			}
		case "a":
			if !closing {
				if href, ok := attrValue(attrs, "href"); ok && href != "" {
					doc.Links = append(doc.Links, href)
				}
			}
		case "p", "br", "div", "td", "tr", "li", "h1", "h2", "h3", "h4", "h5", "h6":
			text.WriteByte(' ')
		}
	}

	doc.Text = strings.TrimSpace(oracleCollapseSpace(text.String()))
	return doc
}

// oracleCollapseSpace replaces runs of whitespace with single spaces.
func oracleCollapseSpace(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteByte(c)
	}
	return b.String()
}

// FuzzTokenize: Tokenize, and a Terms table shared across every input,
// return exactly the tokens of the tokenizer before the table existed,
// and no token is empty or longer than the cap.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "hello world", "ÄÖÜ ß 日本語", "a1b2c3", "....", "\x00\xff", "İstanbul ǅ ΣΑΣ K", "hello again world",
		// The ASCII fast path beside the unicode path, at the length cap.
		"Mixed-CASE_09 @[`{Zz", strings.Repeat("x", 63) + "éAB c", strings.Repeat("é", 31) + "XYZ 9", strings.Repeat("Q", 65) + "é"} {
		f.Add(s)
	}
	var ts Terms
	f.Fuzz(func(t *testing.T, raw string) {
		want := oracleTokenize(raw)
		for _, got := range [][]string{Tokenize(raw), ts.Tokenize(raw)} {
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("Tokenize(%q) = %q, want %q", raw, got, want)
			}
			for _, tok := range got {
				if tok == "" {
					t.Fatal("empty token")
				}
				if len(tok) > 64 {
					t.Fatalf("token longer than cap: %d bytes", len(tok))
				}
			}
		}
	})
}
