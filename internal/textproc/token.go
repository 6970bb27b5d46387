package textproc

import (
	"unicode"
	"unicode/utf8"
)

// maxToken is the longest token in bytes. Real crawls meet pathological
// "words" (base64 blobs, minified code) that would bloat the lexicon
// otherwise.
const maxToken = 64

// Tokenize splits text into lowercase word tokens. Letters and digits
// form tokens; everything else separates them. Tokens longer than 64
// bytes are truncated at a rune boundary. Each token is its own string;
// the result is exactly sized, and nil when text has no token.
func Tokenize(text string) []string {
	var scratch [16]string // a query's tokens gather on the stack
	return exact(appendTokens(scratch[:0], text, nil))
}

// Terms is a table of the distinct tokens seen so far. Its Tokenize
// returns what the package Tokenize returns, but a token already in the
// table comes back as the table's string: a collection of n tokens over
// v distinct terms holds v strings, not n. The zero value is an empty
// table; a nil *Terms tokenizes without one. A Terms is not safe for
// concurrent use.
type Terms struct {
	seen map[string]string
	toks []string // scratch: one text's tokens, reused across calls
}

// Tokenize tokenizes text against the table, adding its new tokens.
func (ts *Terms) Tokenize(text string) []string {
	if ts == nil {
		return Tokenize(text)
	}
	if ts.seen == nil {
		ts.seen = make(map[string]string)
	}
	ts.toks = appendTokens(ts.toks[:0], text, ts.seen)
	return exact(ts.toks)
}

// appendTokens appends text's tokens to dst. With a non-nil seen, a
// token already in it is seen's string, and a new one is added to it.
func appendTokens(dst []string, text string, seen map[string]string) []string {
	var word [maxToken]byte
	n := 0
	full := false // a rune did not fit: the rest of this word is dropped
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			// ASCII: the letters and digits unicode's tables would find,
			// lowered in place.
			i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			case 'A' <= c && c <= 'Z':
				c += 'a' - 'A'
			default:
				dst, n, full = appendWord(dst, word[:n], seen), 0, false
				continue
			}
			full = full || n == maxToken
			if !full {
				word[n] = c
				n++
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			lr := unicode.ToLower(r)
			full = full || n+utf8.RuneLen(lr) > maxToken
			if !full {
				n += utf8.EncodeRune(word[n:], lr)
			}
			continue
		}
		dst, n, full = appendWord(dst, word[:n], seen), 0, false
	}
	return appendWord(dst, word[:n], seen)
}

// appendWord appends word, if any, as a string: seen's copy when it has
// one, else a new string, which a non-nil seen then keeps.
func appendWord(dst []string, word []byte, seen map[string]string) []string {
	if len(word) == 0 {
		return dst
	}
	s, ok := seen[string(word)]
	if !ok {
		s = string(word)
		if seen != nil {
			seen[s] = s
		}
	}
	return append(dst, s)
}

// exact copies toks into a slice of exactly their length.
func exact(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	copy(out, toks)
	return out
}
