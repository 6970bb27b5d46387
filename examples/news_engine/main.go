// news_engine combines the paper's dynamic-collection machinery: a
// stream of "news articles" is indexed online (geometrically merged
// segments, searchable while updating — §4's online index maintenance),
// two users with different habits get personalized rankings whose state
// survives a replica crash (§5 personalization), and a drift detector
// notices when the audience's interests shift (§5 external factors).
//
//	go run ./examples/news_engine
package main

import (
	"fmt"
	"log"

	"dwr/internal/index"
	"dwr/internal/personal"
	"dwr/internal/querylog"
	"dwr/internal/rank"
	"dwr/internal/simweb"
)

func main() {
	// Article source: pages of a synthetic web, streamed in as if
	// published over time.
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 60
	web := simweb.New(wcfg)

	segs := index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
	dyn := index.NewSegmentWriter(segs, 32)
	published := 0
	topicOf := map[int]int{}
	for _, p := range web.Pages {
		if p.Private || published >= 600 {
			continue
		}
		if err := dyn.AddDocument(p.ID, web.Words(p.ID)); err != nil {
			log.Fatal(err)
		}
		topicOf[p.ID] = p.Topic
		published++
		if published%200 == 0 {
			m := segs.Stats()
			fmt.Printf("published %d articles: %d segments, %d merges, %d manifest swaps (readers never blocked)\n",
				published, m.Segments, m.Merges, m.Gen)
		}
	}

	// A breaking story arrives and is searchable immediately.
	dyn.AddDocument(1_000_000, []string{"breaking", "story", "about", "everything"})
	if rs := search(dyn, []string{"breaking", "story"}, 3); len(rs) > 0 {
		fmt.Printf("\nbreaking story indexed and found instantly: doc %d (score %.3f)\n",
			rs[0].Doc, rs[0].Score)
	}
	// Retraction: delete works just as immediately.
	dyn.Delete(1_000_000)
	if rs := search(dyn, []string{"breaking", "story"}, 3); len(rs) == 0 {
		fmt.Println("retracted story gone from results")
	}

	// A query both users issue: same base results, different order. Pick
	// a term whose results span at least two topics so preferences can
	// show (common head-of-Zipf words qualify).
	var sample string
	var base []rank.Result
	for _, p := range web.Pages {
		if p.Private {
			continue
		}
		cand := web.Vocabs[web.Hosts[p.Host].Lang].Word(int(p.Terms[0]))
		rs := search(dyn, []string{cand}, 8)
		topics := map[int]bool{}
		for _, r := range rs {
			topics[topicOf[r.Doc]] = true
		}
		if len(rs) >= 4 && len(topics) >= 2 {
			sample, base = cand, rs
			break
		}
	}

	// Personalization: two readers with opposite habits — ana reads the
	// topic of the currently last-ranked result, ben the first's.
	store := personal.NewStore(3)
	anaTopic := topicOf[base[len(base)-1].Doc]
	benTopic := topicOf[base[0].Doc]
	for i := 0; i < 30; i++ {
		store.RecordClick("ana", anaTopic)
		store.RecordClick("ben", benTopic)
	}
	store.FailReplica(0) // primary crash: nothing may be lost
	ana, _ := store.Get("ana")
	ben, _ := store.Get("ben")
	fmt.Printf("\nprofiles survived a primary crash: ana v%d, ben v%d\n", ana.Version, ben.Version)
	fmt.Printf("\nquery %q: %d base results\n", sample, len(base))
	tf := func(doc int) int { return topicOf[doc] }
	fmt.Printf("ana sees first:  %v\n", firstDocs(personal.Rerank(base, tf, ana, 1.0), 3))
	fmt.Printf("ben sees first:  %v\n", firstDocs(personal.Rerank(base, tf, ben, 1.0), 3))

	// Drift detection over the audience's query stream.
	lcfg := querylog.DefaultConfig()
	lcfg.Days = 20
	lcfg.DriftAmp = 0.9
	lcfg.Total = 8000
	lg := querylog.Generate(web, lcfg)
	dd := querylog.NewDriftDetector(lg.Topics, 400, 0.25)
	for _, q := range lg.Queries {
		if dd.Observe(q.Topic) {
			fmt.Printf("\ndrift detected on day %d (hour %.0f): audience interests shifted — time to repartition\n",
				q.Day, q.Hour)
			break
		}
	}
}

// search ranks the writer's current view — sealed segments plus the
// unsealed tail — with statistics aggregated over that view.
func search(dyn *index.SegmentWriter, terms []string, k int) []rank.Result {
	v := dyn.View()
	rs, _ := rank.EvaluateView(v, rank.NewScorer(rank.FromGlobal(v.LocalStats(terms))), terms, k, rank.PruneNone, 0)
	return rs
}

func firstDocs(rs []rank.Result, n int) []int {
	out := []int{}
	for i := 0; i < n && i < len(rs); i++ {
		out = append(out, rs[i].Doc)
	}
	return out
}
