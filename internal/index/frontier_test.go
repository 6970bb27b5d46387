package index_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dwr/internal/index"
	"dwr/internal/rank"
)

// frontierDocs draws n documents over the terms "a", "b" and "c": each
// holds a term with probability one half, up to maxTF times, padded with
// up to 40 filler tokens, so tf and document length vary apart.
func frontierDocs(rng *rand.Rand, n, maxTF int) []index.Doc {
	docs := make([]index.Doc, n)
	for i := range docs {
		var terms []string
		for _, t := range []string{"a", "b", "c"} {
			if rng.Intn(2) == 0 {
				for range 1 + rng.Intn(maxTF) {
					terms = append(terms, t)
				}
			}
		}
		for range rng.Intn(41) {
			terms = append(terms, "f")
		}
		if len(terms) == 0 {
			terms = []string{"f"}
		}
		docs[i] = index.Doc{Ext: i, Terms: terms}
	}
	return docs
}

// paretoFrontier is the reference frontier, sharing no code with the
// index's: every distinct (tf, length) of the block that no other
// posting of the block matches or beats on tf in a document at least as
// short, by descending tf.
func paretoFrontier(block []index.FrontierPoint) []index.FrontierPoint {
	var out []index.FrontierPoint
	for i, p := range block {
		dominated := false
		for j, q := range block {
			if q.TF >= p.TF && q.Len <= p.Len && (q != p || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(x, y index.FrontierPoint) int { return int(y.TF) - int(x.TF) })
	return out
}

// blockFrontiers returns every term's block frontiers in ix, a layout of
// bs postings per block, and checks each against the block's postings:
// the frontier is the reference Pareto frontier of the block, and its
// best Term under s and idf is the best Term over the block's postings,
// bit for bit. A one-block list has none.
func blockFrontiers(t *testing.T, label string, ix *index.Index, bs int, s *rank.Scorer, idf float64) map[string][][]index.FrontierPoint {
	t.Helper()
	out := map[string][][]index.FrontierPoint{}
	for _, term := range ix.Terms() {
		it := ix.Postings(term)
		var blocks [][]index.FrontierPoint // the postings of each block
		for i := 0; it.Next(); i++ {
			if i%bs == 0 {
				blocks = append(blocks, nil)
			}
			blocks[len(blocks)-1] = append(blocks[len(blocks)-1], index.FrontierPoint{TF: it.TF(), Len: int32(ix.DocLen(it.Doc()))})
		}
		for b, block := range blocks {
			front := it.Frontier(b)
			out[term] = append(out[term], front)
			if it.Blocks() == 1 {
				if len(front) != 0 {
					t.Fatalf("%s: term %q keeps a frontier for its one block", label, term)
				}
				continue
			}
			if want := paretoFrontier(block); !slices.Equal(front, want) {
				t.Fatalf("%s: term %q block %d: frontier %v, the block's Pareto frontier %v", label, term, b, front, want)
			}
			best, brute := math.Inf(-1), math.Inf(-1)
			for _, p := range front {
				best = max(best, s.Term(p.TF, int(p.Len), idf))
			}
			for _, p := range block {
				brute = max(brute, s.Term(p.TF, int(p.Len), idf))
			}
			if math.Float64bits(best) != math.Float64bits(brute) {
				t.Fatalf("%s: term %q block %d: frontier maximum %v, block maximum %v", label, term, b, best, brute)
			}
		}
	}
	return out
}

// FuzzBlockFrontier: over documents the fuzz draws, at block sizes 1 to
// 256, every block frontier an index derives is the block's Pareto
// frontier of (tf, document length), and the best Term over it equals
// the best Term over the block's postings bit for bit, at any idf and
// average length. The frontiers Read derives from a written index, and
// those of the same documents streamed through segments and merged, are
// the ones the build derived.
func FuzzBlockFrontier(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300), uint8(6), 2.5, 30.0)
	f.Add(int64(2), uint8(127), uint16(1000), uint8(1), 0.01, 12.0)
	f.Add(int64(3), uint8(3), uint16(40), uint8(200), 7.0, 0.5)
	f.Add(int64(4), uint8(255), uint16(600), uint8(30), 1e-6, 1e4)
	f.Fuzz(func(t *testing.T, seed int64, bs uint8, n uint16, maxTF uint8, idf, avg float64) {
		if idf = math.Abs(idf); idf == 0 || idf > math.MaxFloat64 || idf != idf {
			idf = 1
		}
		if avg = math.Abs(avg); avg > math.MaxFloat64 || avg != avg {
			avg = 1
		}
		opts := index.Options{BlockSize: 1 + int(bs)}
		docs := frontierDocs(rand.New(rand.NewSource(seed)), 1+int(n)%1200, 1+int(maxTF))
		s := rank.NewScorer(rank.StatsSource{AvgDocLen: avg})

		built, err := index.Build(opts, docs)
		if err != nil {
			t.Fatal(err)
		}
		want := blockFrontiers(t, "built", built, opts.BlockSize, s, idf)

		var buf bytes.Buffer
		if err := built.Write(&buf); err != nil {
			t.Fatal(err)
		}
		read, err := index.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewSegmentStore(opts, index.MergePolicy{Radix: 2})
		w := index.NewSegmentWriter(st, 1+len(docs)/7)
		for _, d := range docs {
			if err := w.AddDocument(d.Ext, d.Terms); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		for label, ix := range map[string]*index.Index{"read back": read, "merged": merged} {
			got := blockFrontiers(t, label, ix, opts.BlockSize, s, idf)
			for term, fronts := range want {
				if !slices.EqualFunc(got[term], fronts, slices.Equal) {
					t.Fatalf("%s: term %q frontiers %v, built %v", label, term, got[term], fronts)
				}
			}
		}
	})
}
