package qproc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/rank"
)

// The parallel broker's contract: at any GOMAXPROCS the results AND
// the full accounting (QueryResult counters, per-server busy load) are
// byte-identical to the serial broker's at GOMAXPROCS 1. These tests pin
// that contract across seeds, partition counts, down-server patterns,
// statistics modes, and evaluation modes: two identical engines answer
// one query stream, one at GOMAXPROCS 1 and one at 8. Run them under
// -race to also exercise the memory-safety half of the claim.

// enginePair builds two identical engines over the same corpus and
// partition: the one sameAtProcs runs serially and the one it fans out.
func enginePair(t *testing.T, docs []index.Doc, k int) (serial, par *DocEngine) {
	t.Helper()
	return newDocEngine(t, docs, k), newDocEngine(t, docs, k)
}

// sameAtProcs answers queries through one at GOMAXPROCS 1 and through
// other at GOMAXPROCS n, and fails on the first answer that differs.
func sameAtProcs[R any](t *testing.T, label string, n int, queries [][]string, one, other func(i int, q []string) R) {
	t.Helper()
	stream := func(procs int, query func(int, []string) R) []R {
		setProcs(t, procs)
		out := make([]R, len(queries))
		for i, q := range queries {
			out[i] = query(i, q)
		}
		return out
	}
	want, got := stream(1, one), stream(n, other)
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: query %d %v:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=%d: %+v", label, i, queries[i], want[i], n, got[i])
		}
	}
}

func sameBusy(t *testing.T, serial, par []float64, label string) {
	t.Helper()
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("%s: busy load diverged\nserial: %v\nparallel: %v", label, serial, par)
	}
}

func TestParallelBrokerMatchesSerial(t *testing.T) {
	downPatterns := [][]int{nil, {0}, {0, -1}} // -1 = last partition
	for _, seed := range []int64{1, 42} {
		docs := corpus(seed, 400, 250)
		queries := zipfQueries(seed+100, 60, 250)
		for _, k := range []int{1, 3, 8} {
			for di, downs := range downPatterns {
				for _, mode := range []StatsMode{GlobalTwoRound, GlobalPrecomputed, LocalOnly} {
					for _, phrase := range []bool{false, true} {
						serial, par := enginePair(t, docs, k)
						for _, p := range downs {
							if p == -1 {
								p = k - 1
							}
							serial.SetDown(p, true)
							par.SetDown(p, true)
						}
						opt := DocQueryOptions{K: 10, Stats: mode, Phrase: phrase}
						label := fmt.Sprintf("seed=%d k=%d downs=%d mode=%d phrase=%v", seed, k, di, mode, phrase)
						sameAtProcs(t, label, 8, queries,
							func(_ int, q []string) QueryResult { return serial.Query(q, opt) },
							func(_ int, q []string) QueryResult { return par.Query(q, opt) })
						sameBusy(t, serial.BusyMs(), par.BusyMs(), label)
					}
				}
			}
		}
	}
}

// The short-phrase case of the Phrase loop above: padded one-term
// queries, under the statistics the deleted QueryPhrase used.
func TestParallelPhraseBrokerMatchesSerial(t *testing.T) {
	docs := corpus(5, 300, 120)
	serial, par := enginePair(t, docs, 4)
	serial.SetDown(2, true)
	par.SetDown(2, true)
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Phrase: true}
	queries := zipfQueries(6, 40, 120)
	for i, q := range queries {
		if len(q) < 2 {
			queries[i] = append(q, q[0])
		}
	}
	sameAtProcs(t, "phrase", 8, queries,
		func(_ int, q []string) QueryResult { return serial.Query(q, opt) },
		func(_ int, q []string) QueryResult { return par.Query(q, opt) })
	sameBusy(t, serial.BusyMs(), par.BusyMs(), "phrase")
}

func TestParallelTermEngineMatchesSerial(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		docs := corpus(seed, 350, 200)
		central := centralIndex(docs)
		for _, k := range []int{2, 6} {
			tp := partition.BinPackTerms(central.Terms(), func(t string) float64 {
				return float64(central.DF(t))
			}, k)
			serial, err := NewTermEngine(index.DefaultOptions(), docs, tp)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewTermEngine(index.DefaultOptions(), docs, tp)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed=%d k=%d", seed, k)
			sameAtProcs(t, label, 8, zipfQueries(seed+9, 50, 200),
				func(_ int, q []string) QueryResult { return serial.Query(q, 10) },
				func(_ int, q []string) QueryResult { return par.Query(q, 10) })
			sameBusy(t, serial.BusyMs(), par.BusyMs(), label)
		}
	}
}

func TestParallelIncrementalMatchesSerial(t *testing.T) {
	// Two identical multi-site systems: the WAN latency model consumes a
	// seeded RNG, so identical construction means identical draws as long
	// as the parallel gather preserves the serial draw order.
	serial := newMultiSite(t, RouteGeo, 0)
	par := newMultiSite(t, RouteGeo, 0)
	incremental := func(m *MultiSite) func(int, []string) []IncrementalBatch {
		return func(qi int, q []string) []IncrementalBatch {
			return m.QueryIncremental(q, qi%3, float64(qi), 10)
		}
	}
	sameAtProcs(t, "incremental batches", 4, zipfQueries(33, 30, 200), incremental(serial), incremental(par))
}

func TestConcurrentQueriesSafe(t *testing.T) {
	// The same engine serving many in-flight queries: each caller must
	// see exactly the answer the quiet engine would give. Busy-load
	// totals are compared with a tolerance because concurrent queries
	// fold their service times in arrival order (float addition across
	// queries is not associative).
	docs := corpus(77, 400, 250)
	queries := zipfQueries(78, 80, 250)
	setProcs(t, 4)
	e := newDocEngine(t, docs, 6)

	want := make([]QueryResult, len(queries))
	for i, q := range queries {
		want[i] = e.Query(q, DocQueryOptions{K: 10, Stats: GlobalTwoRound})
	}
	wantBusy := e.BusyMs()
	e = newDocEngine(t, docs, 6)

	var wg sync.WaitGroup
	errs := make([]string, len(queries))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := e.Query(queries[i], DocQueryOptions{K: 10, Stats: GlobalTwoRound})
			if !reflect.DeepEqual(want[i], got) {
				errs[i] = fmt.Sprintf("query %d %v diverged under concurrency", i, queries[i])
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
	gotBusy := e.BusyMs()
	for p := range wantBusy {
		if d := gotBusy[p] - wantBusy[p]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("partition %d busy %v vs %v", p, gotBusy[p], wantBusy[p])
		}
	}

	// The configuration the servers run: QueryTopK (GlobalPrecomputed
	// scorers with their norm tables), MaxScore, threshold sharing. Alone,
	// a query fans its waves out onto the idle processors; among sixteen
	// callers it mostly finds none idle and runs them inline, so both
	// paths serve the concurrent pass.
	se := newDocEngine(t, docs, 6, WithPruning(rank.PruneMaxScore), WithThresholdSharing(true))
	for _, k := range []int{10, 100} {
		quiet := make([]QueryResult, len(queries))
		for i, q := range queries {
			quiet[i] = se.QueryTopK(q, k)
		}
		errs := make([]string, 16)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := range queries {
					i := (g + j) % len(queries)
					if got := se.QueryTopK(queries[i], k); !reflect.DeepEqual(quiet[i], got) {
						errs[g] = fmt.Sprintf("k=%d query %d %v diverged under concurrency:\nquiet: %+v\ngot:   %+v", k, i, queries[i], quiet[i], got)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatal(e)
			}
		}
	}
}

// TestBrokerAllocations pins what an uncached DocEngine query allocates
// on the serving configuration — QueryTopK on 4 partitions at k=10 with
// MaxScore and threshold sharing, run serially: each evaluated
// partition's answer, the merged answer, and nothing that grows with the
// schedule. The broker's per-query working set is pooled, the scorers
// are built once, and a wave with no idle processor to fan out onto runs
// inline.
func TestBrokerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops Puts at random")
	}
	const brokerAllocs = 5 // four partition answers and the merged one
	docs := corpus(91, 2000, 400)
	queries := zipfQueries(92, 64, 400)
	setProcs(t, 1)
	e := newDocEngine(t, docs, 4, WithPruning(rank.PruneMaxScore), WithThresholdSharing(true))
	for _, q := range queries {
		e.QueryTopK(q, 10)
	}
	i := 0
	n := testing.AllocsPerRun(4*len(queries), func() {
		e.QueryTopK(queries[i%len(queries)], 10)
		i++
	})
	if n > brokerAllocs {
		t.Errorf("an uncached QueryTopK allocates %v times; want at most %d", n, brokerAllocs)
	}
}

// TestParallelConstructionMatchesSerial pins that concurrent partition
// builds produce the same indexes as serial construction.
func TestParallelConstructionMatchesSerial(t *testing.T) {
	docs := corpus(55, 300, 150)
	setProcs(t, 1)
	serial := newDocEngine(t, docs, 5)
	setProcs(t, 8)
	par := newDocEngine(t, docs, 5)
	for p := 0; p < 5; p++ {
		if !index.Equal(serial.PartIndex(p), par.PartIndex(p)) {
			t.Fatalf("partition %d index diverged between serial and parallel build", p)
		}
	}
	if !reflect.DeepEqual(serial.GlobalStats(), par.GlobalStats()) {
		t.Fatalf("global stats diverged")
	}
}
