// Package simweb generates and serves a synthetic Web with the
// statistical properties the paper's crawling, indexing, and querying
// challenges depend on: power-law in-degree, host-level link locality,
// Zipfian term frequencies with topical and language structure, per-page
// change processes, and servers that are slow, flaky, or violate the
// HTTP/HTML standards.
//
// It substitutes for the live Web of the paper (see DESIGN.md): every
// claim in Section 3 is about these distributions, not about any
// particular real page.
package simweb

import (
	"fmt"
	"math/rand"
	"strings"

	"dwr/internal/randx"
)

// languageSyllables gives each synthetic language a distinct phonotactic
// flavour so that the n-gram language identifier in internal/textproc can
// genuinely discriminate the generated text, as required for the
// language-based routing experiments of Section 5.
var languageSyllables = map[string][]string{
	"en": {"th", "ing", "er", "an", "re", "on", "st", "en", "wh", "ck", "tion", "ly", "ed", "es", "igh"},
	"es": {"ci", "on", "ar", "la", "el", "os", "as", "que", "do", "en", "ez", "cion", "lla", "rro", "ña"},
	"it": {"zi", "one", "la", "il", "re", "to", "ia", "gli", "che", "sco", "tta", "ssi", "pro", "per", "ino"},
	"de": {"sch", "ung", "der", "ein", "ich", "ber", "gen", "zu", "ver", "auf", "tz", "pf", "cht", "ack", "oll"},
}

// makeWord deterministically builds a pseudo-word for (lang, termID).
// Words for the same ID differ across languages, and the per-language
// syllable inventory gives each language a recognizable character
// distribution.
func makeWord(lang string, termID int) string {
	syll, ok := languageSyllables[lang]
	if !ok {
		syll = languageSyllables["en"]
	}
	// Derive a deterministic sequence of syllables from termID.
	x := uint64(termID)*2654435761 + 1
	nSyll := 2 + int(x%3) // 2-4 syllables
	var b strings.Builder
	for i := 0; i < nSyll; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b.WriteString(syll[(x>>33)%uint64(len(syll))])
	}
	return b.String()
}

// Vocabulary is a per-language term table mapping dense term IDs to
// distinct word strings.
type Vocabulary struct {
	words []string
}

// NewVocabulary builds a vocabulary of size n for lang. Term IDs are
// ordered by global popularity: id 0 is the most frequent term.
func NewVocabulary(lang string, n int) *Vocabulary {
	v := &Vocabulary{words: make([]string, n)}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		w := makeWord(lang, i)
		// Deterministically disambiguate collisions by appending the ID;
		// collisions are rare but must not merge two term IDs.
		if seen[w] {
			w = fmt.Sprintf("%s%d", w, i)
		}
		v.words[i] = w
		seen[w] = true
	}
	return v
}

// Word returns the word for a term ID; it panics on out-of-range IDs.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// TopicModel biases term draws by topic: each topic prefers a distinct
// band of the vocabulary (on top of the global Zipf popularity), giving
// documents topical term co-occurrence that k-means and co-clustering
// partitioners can discover.
type TopicModel struct {
	topics    int
	vocabSize int
	bandWidth int
}

// NewTopicModel creates a model with the given number of topics over a
// vocabulary of vocabSize terms.
func NewTopicModel(topics, vocabSize int) *TopicModel {
	return &TopicModel{topics: topics, vocabSize: vocabSize, bandWidth: vocabSize / topics}
}

// Topics returns the number of topics.
func (tm *TopicModel) Topics() int { return tm.topics }

// Draw samples one term ID for the given topic: with probability
// topicBias the term comes from the topic's own band (Zipf within the
// band), otherwise from the global Zipf distribution.
func (tm *TopicModel) Draw(rng *rand.Rand, topic int, global, band *randx.Zipf, topicBias float64) int {
	if rng.Float64() < topicBias && tm.bandWidth > 0 {
		off := band.Draw(rng)
		return (topic*tm.bandWidth + off) % tm.vocabSize
	}
	return global.Draw(rng)
}
