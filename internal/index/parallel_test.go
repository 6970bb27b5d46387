package index

import (
	"math/rand"
	"sync"
	"testing"
)

// twinBuilders returns two builders fed the identical document stream.
func twinBuilders(opts Options, docs []Doc) (*MemBuilder, *MemBuilder) {
	a, b := NewBuilder(opts), NewBuilder(opts)
	for _, d := range docs {
		a.AddDocument(d.Ext, d.Terms)
		b.AddDocument(d.Ext, d.Terms)
	}
	return a, b
}

func TestBuildParallelEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := randomDocs(rng, 500, 80)
	for _, opts := range []Options{DefaultOptions(), {BlockSize: 8}} {
		a, b := twinBuilders(opts, docs)
		serial := MustBuild(a)
		par := b.BuildParallel(8)
		if !Equal(serial, par) {
			t.Fatalf("opts %+v: parallel build differs from serial", opts)
		}
	}
}

func TestBuildAllEqualsIndividualBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	docs := randomDocs(rng, 400, 60)
	const k = 5
	mk := func() []*MemBuilder {
		bs := make([]*MemBuilder, k)
		for i := range bs {
			bs[i] = NewBuilder(DefaultOptions())
		}
		for j, d := range docs {
			bs[j%k].AddDocument(d.Ext, d.Terms)
		}
		return bs
	}
	serialBuilders, parBuilders := mk(), mk()
	serial := make([]*Index, k)
	for i, b := range serialBuilders {
		serial[i] = MustBuild(b)
	}
	par := BuildAll(parBuilders)
	for i := range serial {
		if !Equal(serial[i], par[i]) {
			t.Fatalf("partition %d: BuildAll result differs from serial build", i)
		}
	}
}

// TestSkipToRepeatedCallsMatchLinear drives a forward-only sequence of
// SkipTo calls on one iterator — the access pattern of conjunctive
// evaluation — and checks every landing against a linear-scan reference.
// BlockSize 4 forces frequent block-boundary crossings and the binary
// search over the block metadata.
func TestSkipToRepeatedCallsMatchLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	docs := randomDocs(rng, 600, 30)
	opts := DefaultOptions()
	opts.BlockSize = 4
	b := NewBuilder(opts)
	for _, d := range docs {
		b.AddDocument(d.Ext, d.Terms)
	}
	ix := MustBuild(b)

	for _, term := range ix.Terms() {
		var all []int32
		it := ix.Postings(term)
		for it.Next() {
			all = append(all, it.Posting().Doc)
		}
		if len(all) < 8 {
			continue
		}
		it = ix.Postings(term)
		cur := int32(-1)
		for step := 0; ; step++ {
			// Jump ahead by a varying stride so targets fall on, between,
			// and past skip boundaries.
			target := cur + 1 + int32(step%7)
			want := int32(-1)
			for _, d := range all {
				if d >= target {
					want = d
					break
				}
			}
			ok := it.SkipTo(target)
			if want == -1 {
				if ok {
					t.Fatalf("term %q SkipTo(%d) = true past the end", term, target)
				}
				break
			}
			if !ok || it.Posting().Doc != want {
				t.Fatalf("term %q step %d SkipTo(%d): got ok=%v doc=%d, want %d",
					term, step, target, ok, it.Posting().Doc, want)
			}
			cur = want
		}
	}
}

// TestConcurrentReaders hammers one Index from many goroutines; run
// under -race this pins the immutable-after-Build reader-safety
// invariant that the parallel broker relies on.
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	docs := randomDocs(rng, 300, 40)
	b := NewBuilder(DefaultOptions())
	for _, d := range docs {
		b.AddDocument(d.Ext, d.Terms)
	}
	ix := MustBuild(b)
	terms := ix.Terms()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, tm := range terms {
					it := ix.Postings(tm)
					n := 0
					for it.Next() {
						_ = it.Posting()
						n++
					}
					if n != ix.DF(tm) {
						t.Errorf("goroutine %d: term %q decoded %d postings, DF=%d", g, tm, n, ix.DF(tm))
						return
					}
					_ = ix.LocalStats([]string{tm})
				}
			}
		}(g)
	}
	wg.Wait()
}
