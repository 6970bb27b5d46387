package textproc

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lowercase word tokens. Letters and digits
// form tokens; everything else separates them. Tokens longer than 64
// bytes are truncated — real crawls meet pathological "words" (base64
// blobs, minified code) that would bloat the lexicon otherwise.
func Tokenize(text string) []string {
	const maxToken = 64
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if b.Len() < maxToken {
				b.WriteRune(unicode.ToLower(r))
			}
			continue
		}
		flush()
	}
	flush()
	return out
}
