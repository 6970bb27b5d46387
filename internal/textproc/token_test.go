package textproc

import (
	"strings"
	"testing"
	"testing/quick"
)

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
