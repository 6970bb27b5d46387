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
