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

// The parallel broker's contract: at any worker count the results AND
// the full accounting (QueryResult counters, per-server busy load) are
// byte-identical to the serial broker. These tests pin that contract
// across seeds, partition counts, down-server patterns, statistics
// modes, and evaluation modes; run them under -race to also exercise
// the memory-safety half of the claim.

// enginePair builds two engines over the same corpus and partition, one
// forced serial and one with a wide worker pool.
func enginePair(t *testing.T, docs []index.Doc, k int) (serial, par *DocEngine) {
	t.Helper()
	serial = newDocEngine(t, docs, k, WithWorkers(1))
	par = newDocEngine(t, docs, k, WithWorkers(8))
	return serial, par
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
			serial, par := enginePair(t, docs, k)
			for di, downs := range downPatterns {
				for _, p := range downs {
					if p == -1 {
						p = k - 1
					}
					serial.SetDown(p, true)
					par.SetDown(p, true)
				}
				for _, mode := range []StatsMode{GlobalTwoRound, GlobalPrecomputed, LocalOnly} {
					for _, phrase := range []bool{false, true} {
						serial.ResetBusy()
						par.ResetBusy()
						for qi, q := range queries {
							opt := DocQueryOptions{K: 10, Stats: mode, Phrase: phrase}
							want := serial.Query(q, opt)
							got := par.Query(q, opt)
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("seed=%d k=%d downs=%d mode=%d phrase=%v query %d %v:\nserial:   %+v\nparallel: %+v",
									seed, k, di, mode, phrase, qi, q, want, got)
							}
						}
						sameBusy(t, serial.BusyMs(), par.BusyMs(),
							fmt.Sprintf("seed=%d k=%d downs=%d mode=%d phrase=%v", seed, k, di, mode, phrase))
					}
				}
				for p := 0; p < k; p++ {
					serial.SetDown(p, false)
					par.SetDown(p, false)
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
	for _, q := range zipfQueries(6, 40, 120) {
		if len(q) < 2 {
			q = append(q, q[0])
		}
		want := serial.Query(q, opt)
		got := par.Query(q, opt)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("phrase %v:\nserial:   %+v\nparallel: %+v", q, want, got)
		}
	}
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
			serial, err := NewTermEngine(index.DefaultOptions(), docs, tp, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewTermEngine(index.DefaultOptions(), docs, tp, WithWorkers(8))
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range zipfQueries(seed+9, 50, 200) {
				want := serial.Query(q, 10)
				got := par.Query(q, 10)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed=%d k=%d query %d %v:\nserial:   %+v\nparallel: %+v",
						seed, k, qi, q, want, got)
				}
			}
			sameBusy(t, serial.BusyMs(), par.BusyMs(), fmt.Sprintf("seed=%d k=%d", seed, k))
		}
	}
}

func TestParallelIncrementalMatchesSerial(t *testing.T) {
	// Two identical multi-site systems: the WAN latency model consumes a
	// seeded RNG, so identical construction means identical draws as long
	// as the parallel gather preserves the serial draw order.
	serial := newMultiSite(t, RouteGeo, 0)
	serial.Workers = 1
	par := newMultiSite(t, RouteGeo, 0)
	par.Workers = 4
	for qi, q := range zipfQueries(33, 30, 200) {
		want := serial.QueryIncremental(q, qi%3, float64(qi), 10)
		got := par.QueryIncremental(q, qi%3, float64(qi), 10)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d %v: incremental batches diverged", qi, q)
		}
	}
}

func TestConcurrentQueriesSafe(t *testing.T) {
	// The same engine serving many in-flight queries: each caller must
	// see exactly the answer the quiet engine would give. Busy-load
	// totals are compared with a tolerance because concurrent queries
	// fold their service times in arrival order (float addition across
	// queries is not associative).
	docs := corpus(77, 400, 250)
	queries := zipfQueries(78, 80, 250)
	e := newDocEngine(t, docs, 6, WithWorkers(4))

	want := make([]QueryResult, len(queries))
	for i, q := range queries {
		want[i] = e.Query(q, DocQueryOptions{K: 10, Stats: GlobalTwoRound})
	}
	wantBusy := e.BusyMs()
	e.ResetBusy()

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
	se := newDocEngine(t, docs, 6, WithWorkers(4), WithPruning(rank.PruneMaxScore), WithThresholdSharing(true))
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
	e := newDocEngine(t, docs, 4, WithWorkers(1), WithPruning(rank.PruneMaxScore), WithThresholdSharing(true))
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
	serial := newDocEngine(t, docs, 5, WithWorkers(1))
	par := newDocEngine(t, docs, 5, WithWorkers(0))
	for p := 0; p < 5; p++ {
		if !index.Equal(serial.PartIndex(p), par.PartIndex(p)) {
			t.Fatalf("partition %d index diverged between serial and parallel build", p)
		}
	}
	if !reflect.DeepEqual(serial.GlobalStats(), par.GlobalStats()) {
		t.Fatalf("global stats diverged")
	}
}
