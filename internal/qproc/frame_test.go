package qproc

import (
	"errors"
	"reflect"
	"testing"

	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/partition"
)

// TestFrameContract holds every engine to what the shared answer
// pipeline promises, whatever a unit is: a repeat is answered from the
// cache with the stored results and no work; degraded, refused and
// over-budget answers are never stored; Stats counts every accepted
// query — cache hits included — and exactly the degraded and failed
// answers the caller saw; Health names the units the injector fails,
// ascending.
func TestFrameContract(t *testing.T) {
	type row struct {
		name string
		eng  Engine
		// Three distinct queries with results: one to repeat, one to bust
		// a budget on, one to degrade.
		repeat, late, partial []string
		// lose makes one unit's contribution to partial go missing (true)
		// or heals it (false); crash fails whole units at the injector.
		lose  func(lost bool)
		crash func(units ...int)
		// inCluster engines answer through the broker frame itself: a hit
		// costs exactly cacheHitMs and the result cache counts lookups.
		// MultiSite runs the same order with a coordinator in front: a
		// routed hit still pays the client hop, and its per-site caches
		// keep no CacheStats.
		inCluster bool
	}
	lossy := FaultPolicy{Replicas: 1} // no retry, no replica: a failed call is a lost unit
	crasher := func(inj *faultsim.Injector) func(...int) {
		return func(units ...int) {
			for _, u := range units {
				inj.Unit(u, faultsim.Spec{Crash: true})
			}
		}
	}
	loser := func(inj *faultsim.Injector, unit int) func(bool) {
		return func(lost bool) {
			if lost {
				inj.Unit(unit, faultsim.Spec{Crash: true})
			} else {
				inj.ClearUnit(unit)
			}
		}
	}
	docs := corpus(91, 300, 150)
	qs := [][]string{{"w0001", "w0002"}, {"w0003"}, {"w0004"}}
	cache := WithResultCache(ResultCacheConfig{Capacity: 64})
	var rows []row

	docInj := faultsim.New(1)
	rows = append(rows, row{name: "doc", inCluster: true,
		eng:    buildDocEngine(t, docs, 4, cache, WithFaultPolicy(lossy), WithInjector(docInj)),
		repeat: qs[0], late: qs[1], partial: qs[2],
		lose: loser(docInj, 0), crash: crasher(docInj)})

	// The same broker asked for phrases; a document's opening words are a
	// phrase that occurs, and one-word phrases match like terms.
	phraseInj := faultsim.New(5)
	rows = append(rows, row{name: "doc-phrase", inCluster: true,
		eng:    docPhrase{buildDocEngine(t, docs, 4, cache, WithFaultPolicy(lossy), WithInjector(phraseInj))},
		repeat: docs[0].Terms[:2], late: qs[1], partial: qs[2],
		lose: loser(phraseInj, 0), crash: crasher(phraseInj)})

	liveInj := faultsim.New(2)
	live, _, _ := liveFixture(t, docs, 3, 32, cache, WithFaultPolicy(lossy), WithInjector(liveInj))
	rows = append(rows, row{name: "live", inCluster: true, eng: live,
		repeat: qs[0], late: qs[1], partial: qs[2],
		lose: loser(liveInj, 0), crash: crasher(liveInj)})

	termInj := faultsim.New(3)
	tp := partition.BinPackTerms(termVocab(docs), func(string) float64 { return 1 }, 3)
	term, err := NewTermEngine(index.DefaultOptions(), docs, tp, cache, WithFaultPolicy(lossy), WithInjector(termInj))
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{name: "term", inCluster: true, eng: term,
		repeat: qs[0], late: qs[1], partial: qs[2],
		lose: loser(termInj, tp.Assign[qs[2][0]]), crash: crasher(termInj)})

	// Mediated MultiSite: shared-vocabulary queries fan out to every
	// site, so a down partition inside site 1 degrades the routed answer.
	siteInj := faultsim.New(4)
	ms := newFederatedMultiSite(t, 7, 4, 1, append([]Option{WithFaultPolicy(lossy), WithInjector(siteInj)}, mediated...), nil)
	ms.Now = 1
	rows = append(rows, row{name: "multisite", eng: ms,
		repeat: []string{"shared01"}, late: []string{"shared02"}, partial: []string{"shared03"},
		lose:  func(lost bool) { ms.Sites[1].Engine.SetDown(0, lost) },
		crash: crasher(siteInj)})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			asked, evaluated, degraded, failed := 0, 0, 0, 0
			ask := func(q []string, deadlineMs float64) QueryResult {
				qr := r.eng.(DeadlineQuerier).QueryTopKWithin(q, 10, deadlineMs)
				asked++
				if !qr.FromCache {
					evaluated++
				}
				switch {
				case qr.Err != nil:
					failed++
				case qr.Degraded:
					degraded++
				}
				return qr
			}

			miss, hit := ask(r.repeat, 0), ask(r.repeat, 0)
			if miss.FromCache || miss.Err != nil || miss.Degraded || len(miss.Results) == 0 {
				t.Fatalf("cold query: %+v", miss)
			}
			if !hit.FromCache || !reflect.DeepEqual(hit.Results, miss.Results) {
				t.Fatalf("repeat: fromCache=%v, results equal=%v", hit.FromCache, reflect.DeepEqual(hit.Results, miss.Results))
			}
			if hit.PostingsDecoded != 0 || hit.ListsAccessed != 0 || hit.ServersContacted != 0 || hit.Rounds != 0 || hit.Waves != 0 {
				t.Fatalf("hit did backend work: %+v", hit)
			}
			if hit.LatencyMs >= miss.LatencyMs || (r.inCluster && hit.LatencyMs != cacheHitMs) {
				t.Fatalf("hit latency %v after a %v ms miss", hit.LatencyMs, miss.LatencyMs)
			}

			if qr := ask(r.late, 1e-9); !errors.Is(qr.Err, ErrDeadlineExceeded) || qr.Results != nil {
				t.Fatalf("tiny budget: err=%v with %d results", qr.Err, len(qr.Results))
			}
			if qr := ask(r.late, 0); qr.Err != nil || qr.FromCache {
				t.Fatalf("after the busted budget: err=%v fromCache=%v", qr.Err, qr.FromCache)
			}

			r.lose(true)
			for pass := 0; pass < 2; pass++ {
				if qr := ask(r.partial, 0); !qr.Degraded || qr.FromCache || qr.Err != nil {
					t.Fatalf("pass %d with a lost unit: degraded=%v fromCache=%v err=%v", pass, qr.Degraded, qr.FromCache, qr.Err)
				}
			}
			r.lose(false)
			if qr := ask(r.partial, 0); qr.Degraded || qr.FromCache || len(qr.Results) == 0 {
				t.Fatalf("healed: degraded=%v fromCache=%v results=%d", qr.Degraded, qr.FromCache, len(qr.Results))
			}

			st := r.eng.Stats()
			if st.Queries != asked || st.Degraded != degraded || st.Failed != failed {
				t.Fatalf("stats count %d queries, %d degraded, %d failed; the caller saw %d, %d, %d",
					st.Queries, st.Degraded, st.Failed, asked, degraded, failed)
			}
			if r.inCluster && st.ResultCache.Hits+evaluated != asked {
				t.Fatalf("%d hits + %d evaluated != %d asked", st.ResultCache.Hits, evaluated, asked)
			}

			r.crash(2, 1)
			if h := r.eng.Health(); !reflect.DeepEqual(h.Down, []int{1, 2}) || h.Units != r.eng.K() {
				t.Fatalf("health %+v, want units 1 and 2 of %d down", h, r.eng.K())
			}
		})
	}

	// A phrase repeating a term is a different query: "x y x" asked after
	// "x y" is evaluated, not served from "x y"'s entry.
	ph := docPhrase{buildDocEngine(t, docs, 4, cache)}
	x, y := docs[0].Terms[0], docs[0].Terms[1]
	ph.QueryTopKWithin([]string{x, y}, 10, 0)
	if qr := ph.QueryTopKWithin([]string{x, y, x}, 10, 0); qr.FromCache {
		t.Fatalf("phrase %q %q %q served from the cache entry of %q %q", x, y, x, x, y)
	}
}

// docPhrase asks its DocEngine every deadline-bounded query as a phrase.
type docPhrase struct{ *DocEngine }

func (e docPhrase) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	return e.Query(terms, DocQueryOptions{K: k, Stats: GlobalPrecomputed, Phrase: true, DeadlineMs: deadlineMs})
}
