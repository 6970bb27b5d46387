// Package textproc implements the text-processing substrate the paper's
// crawler and indexer depend on: an error-tolerant HTML parser (Section 3
// notes that "it is very important that the HTML parser is tolerant to
// all sort of errors in the crawled pages"), a tokenizer, and an n-gram
// language identifier used for language-based query routing (Section 5).
package textproc

import (
	"strings"
)

// Document is the result of parsing an HTML page: the visible text and
// the outgoing links. Parsing never fails — malformed markup degrades
// gracefully into text.
type Document struct {
	Text  string
	Links []string
}

// ParseHTML extracts text and links from raw HTML. The parser is
// deliberately forgiving: unclosed tags, bare ampersands, attribute soup,
// truncated entities, stray '<' characters, and script/style content are
// all handled without error, because a Web-scale crawler sees all of them.
func ParseHTML(raw string) Document {
	return parse(raw, true)
}

// Links returns the links ParseHTML(raw) extracts, without building the
// text: what a crawler needs to route a page's links.
func Links(raw string) []string {
	return parse(raw, false).Links
}

// parse is the one scanner behind ParseHTML and Links; with text false
// it skips character data instead of decoding it. Text is written as it
// is scanned, each run of ASCII whitespace (and each block tag) one
// pending space that the next visible byte writes.
func parse(raw string, text bool) Document {
	var doc Document
	var b strings.Builder
	if text {
		b.Grow(len(raw))
	}
	space := false // whitespace seen since the last byte written

	i := 0
	n := len(raw)
	skipUntil := "" // closing tag name that ends a skipped element (script/style)

	for i < n {
		c := raw[i]
		if c != '<' {
			// Accumulate character data until the next tag.
			j := strings.IndexByte(raw[i:], '<')
			var chunk string
			if j < 0 {
				chunk = raw[i:]
				i = n
			} else {
				chunk = raw[i : i+j]
				i += j
			}
			if text && skipUntil == "" {
				space = appendCollapsed(&b, DecodeEntities(chunk), space)
			}
			continue
		}
		// At a '<'. Find the closing '>'. A missing '>' means a truncated
		// page: treat the rest as junk and stop.
		end := strings.IndexByte(raw[i:], '>')
		if end < 0 {
			break
		}
		tag := raw[i+1 : i+end]
		i += end + 1

		name, attrs, closing := splitTag(tag)
		if name == "" {
			// Stray "<>", "< " or comment-like garbage: emit nothing.
			continue
		}
		if strings.HasPrefix(name, "!--") {
			// Comment; splitTag keeps the raw form. Find the comment end.
			// If it never ends, the rest of the page is a comment.
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
			// Block-level separators become whitespace so words do not fuse.
			space = true
		}
	}

	if text {
		// Unicode spaces (U+00A0, \v, ...) are text inside a page but
		// trimmed at its edges.
		doc.Text = strings.TrimSpace(b.String())
	}
	return doc
}

// appendCollapsed appends s to b, each run of ASCII whitespace as one
// space, written only before a following byte and never first. space
// says whether whitespace is pending from before s; the result, after.
func appendCollapsed(b *strings.Builder, s string, space bool) bool {
	for i := 0; i < len(s); {
		if isSpace(s[i]) {
			space = true
			i++
			continue
		}
		j := i + 1
		for j < len(s) && !isSpace(s[j]) {
			j++
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteString(s[i:j])
		i = j
	}
	return space
}

// isSpace reports whether c is whitespace the parser collapses.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// splitTag separates a raw tag body into its lowercase name, attribute
// remainder, and whether it is a closing tag. It tolerates whitespace,
// self-closing slashes, and attribute junk.
func splitTag(tag string) (name, attrs string, closing bool) {
	tag = strings.TrimSpace(tag)
	if tag == "" {
		return "", "", false
	}
	if tag[0] == '/' {
		closing = true
		tag = strings.TrimSpace(tag[1:])
	}
	if strings.HasPrefix(tag, "!--") {
		return "!--", "", false
	}
	sp := strings.IndexAny(tag, " \t\r\n")
	if sp < 0 {
		name = tag
	} else {
		name = tag[:sp]
		attrs = tag[sp+1:]
	}
	name = strings.ToLower(strings.TrimSuffix(name, "/"))
	return name, attrs, closing
}

// attrValue extracts the value of the named attribute from an attribute
// string, tolerating single quotes, double quotes, and no quotes at all.
func attrValue(attrs, name string) (string, bool) {
	for pos := 0; pos+len(name) <= len(attrs); pos++ {
		// Fold case in place: strings.ToLower rewrites invalid UTF-8, and
		// some runes, at another length, so its offsets are not attrs'.
		if !strings.EqualFold(attrs[pos:pos+len(name)], name) {
			continue
		}
		// Must be a word boundary before, and an '=' (possibly spaced) after.
		if pos > 0 {
			prev := attrs[pos-1]
			if prev != ' ' && prev != '\t' && prev != '\n' && prev != '\r' && prev != '\'' && prev != '"' {
				continue
			}
		}
		rest := strings.TrimLeft(attrs[pos+len(name):], " \t\r\n")
		if !strings.HasPrefix(rest, "=") {
			continue
		}
		rest = strings.TrimLeft(rest[1:], " \t\r\n")
		if rest == "" {
			return "", true
		}
		switch rest[0] {
		case '"':
			if end := strings.IndexByte(rest[1:], '"'); end >= 0 {
				return rest[1 : 1+end], true
			}
			return rest[1:], true // unterminated quote: take the rest
		case '\'':
			if end := strings.IndexByte(rest[1:], '\''); end >= 0 {
				return rest[1 : 1+end], true
			}
			return rest[1:], true
		default:
			if end := strings.IndexAny(rest, " \t\r\n"); end >= 0 {
				return rest[:end], true
			}
			return rest, true
		}
	}
	return "", false
}

// entities maps the handful of HTML entities that matter for text
// extraction. Unknown entities are passed through verbatim, as a tolerant
// parser must not lose data over a typo like "&nbp;".
var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'", "nbsp": " ",
}

// DecodeEntities replaces known HTML entities in s; unknown or truncated
// entities are kept verbatim.
func DecodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 8 {
			b.WriteByte(c) // bare ampersand
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if rep, ok := entities[strings.ToLower(ent)]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}
