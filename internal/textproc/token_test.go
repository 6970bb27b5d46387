package textproc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// oracleTokenize is Tokenize as it was before the Terms table, kept
// verbatim: FuzzTokenize and TestTermsShareStrings hold both paths of the
// tokenizer to its output.
func oracleTokenize(text string) []string {
	const maxToken = 64
	var out []string
	var b strings.Builder
	full := false // a rune did not fit: the rest of this word is dropped
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
		full = false
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			lr := unicode.ToLower(r)
			full = full || b.Len()+utf8.RuneLen(lr) > maxToken
			if !full {
				b.WriteRune(lr)
			}
			continue
		}
		flush()
	}
	flush()
	return out
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"x2 y3", []string{"x2", "y3"}},
		{"", nil},
		{"...---...", nil},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
		{"don't stop", []string{"don", "t", "stop"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestTokenizeTruncatesMonsters(t *testing.T) {
	monster := strings.Repeat("a", 500)
	got := Tokenize(monster)
	if len(got) != 1 || len(got[0]) != 64 {
		t.Fatalf("monster token not truncated to 64: got %d tokens, len %d", len(got), len(got[0]))
	}
}

func TestTokenizeTruncatesAtARuneBoundary(t *testing.T) {
	// A two-byte rune at byte 63 does not fit, and nothing after it is
	// appended: the token is a 63-byte prefix of the word.
	a63 := strings.Repeat("a", 63)
	got := Tokenize(a63 + "éaa bb")
	if len(got) != 2 || got[0] != a63 || got[1] != "bb" {
		t.Fatalf("Tokenize = %q, want [%d a's, bb]", got, len(a63))
	}
}

func TestTokenizeAllLowercase(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) || tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTermsShareStrings: a table hands every occurrence of a token back
// as one string, across calls, in an exactly sized slice, and its output
// is the table-less tokenizer's.
func TestTermsShareStrings(t *testing.T) {
	var ts Terms
	texts := []string{"Alpha beta ALPHA", "beta, gamma; alpha!", "", "...", "ǅemal Ǆ ǆ"}
	first := make(map[string]*byte)
	for _, text := range texts {
		got := ts.Tokenize(text)
		if want := oracleTokenize(text); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Terms.Tokenize(%q) = %q, want %q", text, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("Terms.Tokenize(%q): len %d, cap %d", text, len(got), cap(got))
		}
		for _, tok := range got {
			p, ok := first[tok]
			if !ok {
				first[tok] = unsafe.StringData(tok)
			} else if p != unsafe.StringData(tok) {
				t.Fatalf("token %q came back as a second string", tok)
			}
		}
	}
	if len(ts.seen) != len(first) {
		t.Fatalf("table holds %d tokens, %d were seen", len(ts.seen), len(first))
	}
	if got := Tokenize("xy z xy"); len(got) != cap(got) || unsafe.StringData(got[0]) == unsafe.StringData(got[2]) {
		t.Fatal("Tokenize without a table must size exactly and share nothing")
	}
	var none *Terms
	if got := none.Tokenize("Nil Table"); !slices.Equal(got, []string{"nil", "table"}) {
		t.Fatalf("nil table: %q", got)
	}
}

// TestTokenizeAllocations: a token costs one allocation, and the result
// slice one more; through a table, a token the table holds costs none.
func TestTokenizeAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Tokenize("three query terms") }); n != 4 {
		t.Fatalf("Tokenize of 3 tokens: %v allocations, want 4", n)
	}
	var ts Terms
	ts.Tokenize("three query terms")
	if n := testing.AllocsPerRun(100, func() { ts.Tokenize("terms three query") }); n != 1 {
		t.Fatalf("Terms.Tokenize of 3 known tokens: %v allocations, want 1", n)
	}
}
