package qproc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dwr/internal/cluster"
	"dwr/internal/index"
	"dwr/internal/rank"
)

// FuzzEnginesAgree: over a collection the fuzz bytes choose — up to 64
// documents over a sixteen-term alphabet, external IDs shuffled, split
// over one to four partitions — and a query of one to four terms that
// may repeat a term or name one no document holds ("t16" to "t19"), at k
// in 1..20, the default DocEngine, the single-wave MaxScore DocEngine,
// the exhaustive single-wave DocEngine and the default LiveEngine over
// the same documents ingested into segment stores and sealed return the
// same ranking bit for bit, and it is the central rank.EvaluateOR
// ranking (within sameRanking's tolerance). Each engine answers the
// query a second time exactly as the first, results and counters. No
// answer carries an Err or is Degraded; a query no document matches is
// answered with no results.
//
// The bytes after k choose one to three replica sites and the ones an
// outage holds down at the query's hour. While a site is up, MultiSite's
// Submit answers the default DocEngine's ranking bit for bit, and a
// replay at the same hour is that ranking again from the coordinator's
// cache; with every site down and nothing cached, it fails with
// ErrAllSitesDown. The same documents split disjointly over as many
// sites answer QueryFederated's full fan-out exactly as
// QueryExhaustiveResults merges them, and a query no document matches
// is an empty answer there too, not a failed one.
//
// The last byte holds partitions down (SetDown). With some down, the
// default and the exhaustive DocEngine answer Degraded, with no Err, and
// their ranking is rank.EvaluateOR's over the up partitions' documents,
// merged, bit for bit; a query is unanswered (no partition contacted or
// skipped) only when no partition is up.
func FuzzEnginesAgree(f *testing.F) {
	docBytes := []byte{
		3, 0, 1, 2, 3, 2, 0, 0, 4, 1, 5, 0, 4, 1, 1, 1, 6, 7, 0, 0, 5, 8, 9, 10, 11, 0, 2,
		2, 12, 13, 0, 1, 14, 15, 3, 0, 3, 3, 3, 0, 1, 2, 2, 2, 0, 1, 4, 0,
	}
	// Two partitions, three documents, the query "t17": no match.
	f.Add([]byte{1, 2, 5, 1, 1, 0, 1, 0, 2, 2, 3, 4, 5, 0, 17, 9})
	// Four partitions, twelve documents, the one-term query "t0" at k=5.
	f.Add(slices.Concat([]byte{3, 11, 42, 2}, docBytes, []byte{0, 0, 4}))
	// The same collection, "t0 t3 t3 t19" at k=3.
	f.Add(slices.Concat([]byte{3, 11, 42, 2}, docBytes, []byte{3, 0, 3, 3, 19, 2}))
	// Three sites with sites 0 and 2 down: site 1 answers "t1 t2" at k=4.
	f.Add(slices.Concat([]byte{1, 11, 7, 3}, docBytes, []byte{1, 1, 2, 3, 2, 5}))
	// Three sites, all down, the no-match query "t17" at k=10.
	f.Add(slices.Concat([]byte{1, 11, 7, 3}, docBytes, []byte{0, 17, 9, 2, 7}))
	// Two partitions, six documents: four "t0" and two "t0 t3", each
	// score shared by documents of both partitions; "t0" at k=8, above
	// the match count, on two sites.
	f.Add([]byte{1, 5, 0, 0, 0, 0, 0, 0, 1, 0, 3, 1, 0, 3, 0, 0, 0, 0, 0, 0, 7, 1, 0})
	// Four partitions, twelve documents, "t0 t3" at k=6 with partitions
	// 1 and 3 down; then with all four down.
	f.Add(slices.Concat([]byte{3, 11, 42, 2}, docBytes, []byte{1, 0, 3, 5, 0, 0, 0b1010}))
	f.Add(slices.Concat([]byte{3, 11, 42, 2}, docBytes, []byte{1, 0, 3, 5, 0, 0, 0b1111}))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nparts := 1 + next()%4
		n := 1 + next()%64
		exts := rand.New(rand.NewSource(int64(next()))).Perm(n)
		segDocs := 1 + next()%8
		docs := make([]index.Doc, n)
		for i, ext := range exts {
			terms := make([]string, 1+next()%8)
			for j := range terms {
				terms[j] = fmt.Sprintf("t%d", next()%16)
			}
			docs[i] = index.Doc{Ext: ext, Terms: terms}
		}
		q := make([]string, 1+next()%4)
		for i := range q {
			q[i] = fmt.Sprintf("t%d", next()%20)
		}
		k := 1 + next()%20
		nsites := 1 + next()%3
		down := next()
		partsDown := next()

		central := centralIndex(docs)
		want, _ := rank.EvaluateOR(central, rank.NewScorer(rank.FromIndex(central)), q, k)
		stores, _ := liveStores(t, docs, nparts, segDocs)
		engines := []struct {
			name string
			e    Engine
		}{
			{"default DocEngine", newDocEngine(t, docs, nparts)},
			{"single-wave MaxScore DocEngine", newDocEngine(t, docs, nparts, WithThresholdSharing(false))},
			{"exhaustive single-wave DocEngine", newDocEngine(t, docs, nparts, exhaustiveOpts...)},
			{"default LiveEngine", liveOver(t, stores)},
		}
		var first []rank.Result
		for i, en := range engines {
			qr := en.e.QueryTopK(q, k)
			label := fmt.Sprintf("%s, query %v, k=%d, %d docs over %d partitions", en.name, q, k, n, nparts)
			if qr.Err != nil || qr.Degraded {
				t.Fatalf("%s: err=%v degraded=%v", label, qr.Err, qr.Degraded)
			}
			if again := en.e.QueryTopK(q, k); !reflect.DeepEqual(again, qr) {
				t.Fatalf("%s: a replay answered\n%+v\nafter\n%+v", label, again, qr)
			}
			if i == 0 {
				first = qr.Results
			} else if !slices.Equal(first, qr.Results) {
				t.Fatalf("%s:\n%s %v\ngot %v", label, engines[0].name, first, qr.Results)
			}
			sameRanking(t, want, qr.Results, label)
		}

		label := fmt.Sprintf("query %v, k=%d, %d docs, %d partitions", q, k, n, nparts)
		if partsDown%(1<<nparts) != 0 {
			downPartitions(t, docs, nparts, partsDown, q, k, label)
		}

		replicas := NewMultiSite(cluster.NewNetwork(1), RouteGeo)
		replicas.CacheTTL = 24
		anyUp := false
		for s := 0; s < nsites; s++ {
			site := NewSite(s, s, newDocEngine(t, docs, nparts), 16, 0)
			if down&(1<<s) != 0 {
				site.Outages = []cluster.Outage{{Start: 0, End: 2}}
			} else {
				anyUp = true
			}
			replicas.Sites = append(replicas.Sites, site)
		}
		label = fmt.Sprintf("%s, %d replica sites, down set %03b", label, nsites, down&7)
		r := replicas.Submit(q, NormalizeQueryKey(q), 0, 1, k)
		switch {
		case !anyUp:
			if !r.Failed || !errors.Is(r.Err, ErrAllSitesDown) {
				t.Fatalf("%s: every site down answered %+v", label, r)
			}
		case r.Failed || r.Err != nil || r.Degraded || r.FromCache:
			t.Fatalf("%s: Submit answered %+v", label, r)
		case !slices.Equal(r.Results, first):
			t.Fatalf("%s: Submit %v, default DocEngine %v", label, r.Results, first)
		default:
			again := replicas.Submit(q, NormalizeQueryKey(q), 0, 1, k)
			if !again.FromCache || !slices.Equal(again.Results, first) {
				t.Fatalf("%s: a replay answered %+v after %v", label, again, first)
			}
		}

		// Site s holds every document whose position is s mod the site
		// count: disjoint collections, none empty.
		fed := NewMultiSite(cluster.NewNetwork(1), RouteGeo)
		fed.CacheTTL = 24
		for s := 0; s < min(nsites, n); s++ {
			var slice []index.Doc
			for i := s; i < n; i += min(nsites, n) {
				slice = append(slice, docs[i])
			}
			fed.Sites = append(fed.Sites, NewSite(s, s, newDocEngine(t, slice, nparts), 16, 0))
		}
		fr := fed.QueryFederated(q, NormalizeQueryKey(q), 0, 1, k)
		if fr.Failed || fr.Err != nil || fr.Degraded || !fr.FullFanout {
			t.Fatalf("%s over %d disjoint sites: QueryFederated answered %+v", label, len(fed.Sites), fr)
		}
		if ex := fed.QueryExhaustiveResults(q, 1, k); !slices.Equal(fr.Results, ex) {
			t.Fatalf("%s over %d disjoint sites: QueryFederated %v, exhaustive %v", label, len(fed.Sites), fr.Results, ex)
		}
		if len(want) == 0 && len(fr.Results) != 0 {
			t.Fatalf("%s over %d disjoint sites: no document matches, QueryFederated answered %v", label, len(fed.Sites), fr.Results)
		}
	})
}

// downPartitions is FuzzEnginesAgree's partition-down arm: partition p
// of nparts is down when bit p of mask is set, and at least one is.
func downPartitions(t *testing.T, docs []index.Doc, nparts, mask int, q []string, k int, label string) {
	t.Helper()
	ref := newDocEngine(t, docs, nparts)
	var up []int
	for p := 0; p < nparts; p++ {
		if mask&(1<<p) == 0 {
			up = append(up, p)
		}
	}
	// Scored with the whole collection's precomputed statistics, the
	// down partitions' documents included, as the engine scores them.
	scorer := rank.NewScorer(rank.FromGlobal(ref.GlobalStats()))
	lists := make([][]rank.Result, len(up))
	for i, p := range up {
		lists[i], _ = rank.EvaluateOR(ref.PartIndex(p), scorer, q, k)
	}
	want := rank.MergeResults(k, lists...)

	label = fmt.Sprintf("%s, partitions down %04b", label, mask%(1<<nparts))
	for _, e := range []*DocEngine{ref, newDocEngine(t, docs, nparts, exhaustiveOpts...)} {
		for p := 0; p < nparts; p++ {
			e.SetDown(p, mask&(1<<p) != 0)
		}
		qr := e.QueryTopK(q, k)
		switch {
		case qr.Err != nil || !qr.Degraded:
			t.Fatalf("%s: err=%v degraded=%v", label, qr.Err, qr.Degraded)
		case qr.unanswered() != (len(up) == 0):
			t.Fatalf("%s: unanswered %v with %d partitions up: %+v", label, qr.unanswered(), len(up), qr)
		case !slices.Equal(qr.Results, want):
			t.Fatalf("%s:\nengine %v\nEvaluateOR over the up partitions %v", label, qr.Results, want)
		}
	}
}
