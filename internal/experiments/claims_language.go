package experiments

import (
	"strings"

	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/textproc"
)

// Claim17LanguageRouting (C17) implements §5's language-based index
// partitioning and query routing: documents are partitioned by host
// language, query language is identified with the Cavnar–Trenkle n-gram
// classifier the paper cites, and queries are routed to the matching
// partition only. The experiment measures identification accuracy (the
// paper warns short queries "may introduce errors"), the routing win
// (one partition instead of all), and the cost of misrouting.
func Claim17LanguageRouting() *Result {
	f := sharedFixture()
	r := newResult("C17")

	langs := f.web.Config.Languages
	langIdx := make(map[string]int, len(langs))
	for i, l := range langs {
		langIdx[l] = i
	}

	// Partition documents by their host's language.
	dp := partition.DocPartition{K: len(langs), Parts: make([][]int, len(langs)), Assign: make(map[int]int)}
	for _, d := range f.docs {
		p := f.web.Pages[d.Ext]
		li := langIdx[f.web.Hosts[p.Host].Lang]
		dp.Parts[li] = append(dp.Parts[li], d.Ext)
		dp.Assign[d.Ext] = li
	}
	engine, err := qproc.NewDocEngine(index.DefaultOptions(), f.docs, dp)
	if err != nil {
		panic(err)
	}

	// Train the identifier on samples of each language's documents.
	byExt := make(map[int]index.Doc, len(f.docs))
	for _, d := range f.docs {
		byExt[d.Ext] = d
	}
	var profiles []*textproc.LangProfile
	for li, lang := range langs {
		var sample strings.Builder
		taken := 0
		for _, ext := range dp.Parts[li] {
			d := byExt[ext]
			sample.WriteString(strings.Join(d.Terms[:min(80, len(d.Terms))], " "))
			sample.WriteByte(' ')
			taken++
			if taken >= 8 {
				break
			}
		}
		profiles = append(profiles, textproc.NewLangProfile(lang, sample.String()))
	}
	li := textproc.NewLangIdentifier(profiles...)
	centralScorer := rank.NewScorer(rank.FromIndex(f.central))

	// Replay test queries: identify language, route to that partition
	// only, compare with broadcast.
	correct, total := 0, 0
	var recallRouted, recallWrong float64
	nRouted, nWrong := 0, 0
	var postRouted, postBroadcast int
	for i, q := range f.test.Queries {
		if i >= 1200 {
			break
		}
		text := strings.Join(q.Terms, " ")
		got := li.Identify(text)
		if got == "" {
			continue
		}
		total++
		if got == q.Lang {
			correct++
		}
		truth, _ := rank.EvaluateOR(f.central, centralScorer, q.Terms, 10)
		if len(truth) == 0 {
			continue
		}
		top := make([]int, len(truth))
		for j, res := range truth {
			top[j] = res.Doc
		}
		// Route to the identified partition only.
		routed := engine.Query(q.Terms, qproc.DocQueryOptions{
			K: 10, Stats: qproc.GlobalPrecomputed,
			Selector: staticSelector{order: rankFrom(langIdx[got], len(langs))}, SelectN: 1,
		})
		hit := 0
		for _, d := range top {
			if dp.Assign[d] == langIdx[got] {
				hit++
			}
		}
		rec := float64(hit) / float64(len(top))
		if got == q.Lang {
			recallRouted += rec
			nRouted++
		} else {
			recallWrong += rec
			nWrong++
		}
		postRouted += routed.PostingsDecoded
		broadcast := engine.Query(q.Terms, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
		postBroadcast += broadcast.PostingsDecoded
	}
	if nRouted > 0 {
		recallRouted /= float64(nRouted)
	}
	if nWrong > 0 {
		recallWrong /= float64(nWrong)
	}

	t := metrics.NewTable("language identification and routing", "metric", "value")
	t.AddRow("languages / partitions", len(langs))
	t.AddRow("identification accuracy on queries", float64(correct)/float64(total))
	t.AddRow("recall@10 when routed to identified partition (correct ID)", recallRouted)
	t.AddRow("recall@10 under misidentification", recallWrong)
	t.AddRow("postings decoded, routed", postRouted)
	t.AddRow("postings decoded, broadcast", postBroadcast)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"accuracy":       float64(correct) / float64(total),
		"recall_correct": recallRouted,
		"recall_wrong":   recallWrong,
		"post_routed":    float64(postRouted),
		"post_broadcast": float64(postBroadcast),
	}
	r.Notes = append(r.Notes,
		"paper: 'partitioning the index according to the language of queries is also a suitable approach ... such process may introduce errors' — misidentified queries lose almost all their relevant documents")
	return r
}

// staticSelector always proposes a fixed partition order.
type staticSelector struct{ order []int }

func (s staticSelector) Rank(terms []string) []int { return s.order }
func (s staticSelector) K() int                    { return len(s.order) }

// rankFrom returns the permutation [first, then the rest ascending].
func rankFrom(first, k int) []int {
	out := []int{first}
	for i := 0; i < k; i++ {
		if i != first {
			out = append(out, i)
		}
	}
	return out
}
