package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into lowercase word tokens. Letters and digits
// form tokens; everything else separates them. Tokens longer than 64
// bytes are truncated at a rune boundary — real crawls meet pathological "words" (base64
// blobs, minified code) that would bloat the lexicon otherwise.
func Tokenize(text string) []string {
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
