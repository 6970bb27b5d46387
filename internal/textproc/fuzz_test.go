package textproc

import (
	"slices"
	"testing"
)

// Fuzz targets: the crawler feeds these parsers whatever the Web throws
// at it, so they must never panic and must keep their basic contracts on
// arbitrary input. `go test` runs the seed corpus; `go test -fuzz=Fuzz...`
// explores further.

func FuzzParseHTML(f *testing.F) {
	seeds := []string{
		"",
		"<html><body>hello</body></html>",
		"<p>one<p>two<b>three",
		"<a href=broken>x",
		"x <!-- never closed",
		"<script>evil()</script>visible",
		"<A HREF='a'>t</A><a href=\"b\">u</a><a href=c>v</a>",
		"\x00\xff<title>bin</title>",
		"&amp;&nosuch;&",
		"<><<>><tag attr==val>",
		"<A 000000000\xff00 href>", // ToLower once grew the \xff and misplaced href
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		doc := ParseHTML(raw)
		for _, l := range doc.Links {
			if l == "" {
				t.Fatal("empty link extracted")
			}
		}
	})
}

// FuzzTokenize: Tokenize, and a Terms table shared across every input,
// return exactly the tokens of the tokenizer before the table existed,
// and no token is empty or longer than the cap.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "hello world", "ÄÖÜ ß 日本語", "a1b2c3", "....", "\x00\xff", "İstanbul ǅ ΣΑΣ K", "hello again world"} {
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
