package experiments

import (
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/randx"
	"dwr/internal/rank"
)

// Claim20PhraseShipping (C20) reproduces §5's positional-search warning:
// "When position information is used for proximity or phrase search,
// however, the communication overhead between servers increases greatly
// ... the position information needs to be compressed". Document
// partitioning intersects positions locally; pipelined term partitioning
// ships candidate positions between servers, and delta+varint encoding
// cuts the bill.
func Claim20PhraseShipping() *Result {
	f := sharedFixture()
	r := newResult("C20")
	const k = 8

	de, err := qproc.NewDocEngine(index.DefaultOptions(), f.docs, partition.RoundRobinDocs(index.DocIDs(f.docs), k))
	if err != nil {
		panic(err)
	}
	tp := partition.RandomTerms(randx.New(17), f.central.Terms(), k)
	te, err := qproc.NewTermEngine(index.DefaultOptions(), f.docs, tp)
	if err != nil {
		panic(err)
	}

	// Phrase queries: consecutive word pairs sampled from documents (so
	// they actually occur).
	rng := randx.New(18)
	var phrases [][]string
	for len(phrases) < 150 {
		d := f.docs[rng.Intn(len(f.docs))]
		if len(d.Terms) < 3 {
			continue
		}
		i := rng.Intn(len(d.Terms) - 2)
		phrases = append(phrases, []string{d.Terms[i], d.Terms[i+1]})
	}

	gs := rank.NewScorer(rank.FromGlobal(de.GlobalStats()))
	var docBytes, rawBytes, compBytes int64
	matched := 0
	identical := 0
	for _, ph := range phrases {
		want, _ := rank.EvaluatePhrase(f.central, gs, ph, 10)
		dres := de.Query(ph, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed, Phrase: true})
		raw := te.QueryPhrase(ph, 10, false)
		comp := te.QueryPhrase(ph, 10, true)
		if len(want) > 0 {
			matched++
		}
		if sameDocs(want, dres.Results) && sameDocs(want, raw.Results) && sameDocs(want, comp.Results) {
			identical++
		}
		docBytes += dres.BytesTransferred
		rawBytes += raw.BytesTransferred
		compBytes += comp.BytesTransferred
	}
	n := float64(len(phrases))
	t := metrics.NewTable("bytes moved between servers per phrase query (avg over 150 phrases)",
		"system", "KB moved/query")
	t.AddRow("document-partitioned (positions stay local)", float64(docBytes)/n/1024)
	t.AddRow("term-partitioned, raw positions", float64(rawBytes)/n/1024)
	t.AddRow("term-partitioned, delta+varint positions", float64(compBytes)/n/1024)
	r.Tables = append(r.Tables, t)
	c := metrics.NewTable("correctness", "metric", "value")
	c.AddRow("phrases with ≥1 match", matched)
	c.AddRow("queries where all engines agree with central", identical)
	r.Tables = append(r.Tables, c)
	r.Values = map[string]float64{
		"doc_kb":    float64(docBytes) / n / 1024,
		"raw_kb":    float64(rawBytes) / n / 1024,
		"comp_kb":   float64(compBytes) / n / 1024,
		"agreement": float64(identical) / n,
		"matched":   float64(matched),
	}
	r.Notes = append(r.Notes,
		"doc partitioning ships only top-k results; the pipelined accumulator carries positions, compressed ≈3-4× by delta+varint")
	return r
}

// sameDocs compares two rankings by document set and order.
func sameDocs(a, b []rank.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc {
			return false
		}
	}
	return true
}
