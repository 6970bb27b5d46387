package index

import (
	"math/rand"
	"testing"
)

// allBuilderIndexes builds the same document set with every construction
// strategy and returns the results keyed by strategy name.
func allBuilderIndexes(t *testing.T, docs []Doc, opts Options) map[string]*Index {
	t.Helper()
	out := make(map[string]*Index)

	ref := NewBuilder(opts)
	for _, d := range docs {
		ref.AddDocument(d.Ext, d.Terms)
	}
	out["builder"] = MustBuild(ref)

	sb := NewSortBuilder(opts)
	for _, d := range docs {
		sb.AddDocument(d.Ext, d.Terms)
	}
	out["sort"] = MustBuild(sb)

	sp, err := NewSPIMIBuilder(opts, 16<<10, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := sp.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
	}
	spIx, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Spills() < 2 {
		t.Fatalf("SPIMI spilled only %d runs; budget too large to exercise merging", sp.Spills())
	}
	out["spimi"] = spIx

	mr, err := BuildMapReduce(opts, docs, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["mapreduce"] = mr

	pl, err := BuildPipeline(opts, docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["pipeline"] = pl

	return out
}

func TestAllBuildersProduceIdenticalIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := randomDocs(rng, 300, 80)
	for _, opts := range []Options{
		DefaultOptions(),
		{BlockSize: 32},
		{BlockSize: 0},
	} {
		ixs := allBuilderIndexes(t, docs, opts)
		ref := ixs["builder"]
		for name, ix := range ixs {
			if !Equal(ref, ix) {
				t.Fatalf("opts %+v: %s index differs from reference", opts, name)
			}
		}
	}
}

func TestMergePartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := randomDocs(rng, 200, 50)
	opts := DefaultOptions()

	// Reference: single index over all docs (in ext order — randomDocs
	// already emits ascending ext IDs).
	ref := NewBuilder(opts)
	for _, d := range docs {
		ref.AddDocument(d.Ext, d.Terms)
	}
	refIx := MustBuild(ref)

	// Partition docs modulo 3 and merge.
	builders := []*MemBuilder{NewBuilder(opts), NewBuilder(opts), NewBuilder(opts)}
	for i, d := range docs {
		builders[i%3].AddDocument(d.Ext, d.Terms)
	}
	parts := make([]*Index, 3)
	for i, b := range builders {
		parts[i] = MustBuild(b)
	}
	merged, _, err := mergeParts(opts, parts, byExtID, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(refIx, merged) {
		t.Fatal("merged index differs from single-pass reference")
	}
}

func TestMergeRejectsDuplicateDocs(t *testing.T) {
	opts := DefaultOptions()
	a := NewBuilder(opts)
	a.AddDocument(1, []string{"x"})
	b := NewBuilder(opts)
	b.AddDocument(1, []string{"y"})
	if _, _, err := mergeParts(opts, []*Index{MustBuild(a), MustBuild(b)}, byExtID, nil, 1); err == nil {
		t.Fatal("mergeParts accepted overlapping document sets")
	}
}

func TestMapReduceRejectsDuplicates(t *testing.T) {
	docs := []Doc{{Ext: 1, Terms: []string{"a"}}, {Ext: 1, Terms: []string{"b"}}}
	if _, err := BuildMapReduce(DefaultOptions(), docs, 2, 2); err == nil {
		t.Fatal("BuildMapReduce accepted duplicate documents")
	}
	if _, err := BuildPipeline(DefaultOptions(), docs, 2); err == nil {
		t.Fatal("BuildPipeline accepted duplicate documents")
	}
}

func TestMapReduceWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs := randomDocs(rng, 100, 30)
	opts := DefaultOptions()
	ref, err := BuildMapReduce(opts, docs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mw := range []int{2, 5, 16} {
		for _, rw := range []int{1, 4} {
			ix, err := BuildMapReduce(opts, docs, mw, rw)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(ref, ix) {
				t.Fatalf("mapreduce with %d/%d workers differs", mw, rw)
			}
		}
	}
}

func TestPipelineStageCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	docs := randomDocs(rng, 100, 30)
	opts := DefaultOptions()
	ref, err := BuildPipeline(opts, docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 3, 8} {
		ix, err := BuildPipeline(opts, docs, s)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(ref, ix) {
			t.Fatalf("pipeline with %d stages differs", s)
		}
	}
}

func TestBuildersEmptyInput(t *testing.T) {
	opts := DefaultOptions()
	if ix, err := BuildMapReduce(opts, nil, 3, 3); err != nil || ix.NumDocs() != 0 {
		t.Fatalf("empty mapreduce: %v, %d docs", err, ix.NumDocs())
	}
	if ix, err := BuildPipeline(opts, nil, 3); err != nil || ix.NumDocs() != 0 {
		t.Fatalf("empty pipeline: %v, %d docs", err, ix.NumDocs())
	}
	sp, err := NewSPIMIBuilder(opts, 1024, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sp.Build()
	if err != nil || ix.NumDocs() != 0 {
		t.Fatalf("empty spimi: %v, %d docs", err, ix.NumDocs())
	}
}

func TestSPIMIDuplicateDocError(t *testing.T) {
	sp, err := NewSPIMIBuilder(DefaultOptions(), 1024, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.AddDocument(5, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddDocument(5, []string{"b"}); err == nil {
		t.Fatal("SPIMI accepted duplicate document")
	}
}
