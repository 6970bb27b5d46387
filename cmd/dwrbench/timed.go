package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"time"

	"dwr/internal/index"
	"dwr/internal/randx"
	"dwr/internal/rank"
)

// zipfWorkload builds the seeded Zipf corpus and query set the pruning
// and threshold scenarios share: 3 000-term vocabulary, 40–199 terms
// per document, 2–4 terms per query.
func zipfWorkload(seed int64, docs, queries int) ([]index.Doc, [][]string) {
	rng := randx.New(seed)
	z := randx.NewZipf(3000, 1.0)
	draw := func(n int) []string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("w%04d", z.Draw(rng))
		}
		return terms
	}
	ds := make([]index.Doc, docs)
	for d := range ds {
		ds[d] = index.Doc{Ext: d, Terms: draw(40 + rng.Intn(160))}
	}
	qs := make([][]string, queries)
	for i := range qs {
		qs[i] = draw(2 + rng.Intn(3))
	}
	return ds, qs
}

// medianAndP99 sorts lat in place and returns its median and 99th
// percentile.
func medianAndP99(lat []float64) (p50, p99 float64) {
	sort.Float64s(lat)
	return lat[len(lat)/2], lat[min(len(lat)-1, len(lat)*99/100)]
}

// wallClock turns per-query wall-clock latencies in microseconds into
// the timings every timed row reports.
func wallClock(latUs []float64) map[string]float64 {
	var total float64
	for _, v := range latUs {
		total += v
	}
	p50, p99 := medianAndP99(latUs)
	return map[string]float64{
		"qps":    float64(len(latUs)) / (total / 1e6),
		"p50_us": p50,
		"p99_us": p99,
	}
}

// timedPass runs eval over the queries twice — a warmup that faults in
// caches and steady-states the allocator, then the timed pass — and
// returns the measured row: the work eval adds into its totals averaged
// per query (counters), wall-clock timings, allocations per query (a
// timing: the runtime's own allocations leak into the count), and
// whether every ranking equalled want bitwise.
func timedPass(w io.Writer, name string, queries [][]string, want [][]rank.Result, eval func(q []string, work map[string]float64) []rank.Result) row {
	r := row{Name: name, Counters: map[string]float64{}, Invariants: map[string]bool{"rank_identical": true}}
	warmup := map[string]float64{}
	for _, q := range queries {
		eval(q, warmup)
	}
	lat := make([]float64, len(queries))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, q := range queries {
		t0 := time.Now()
		got := eval(q, r.Counters)
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if r.Invariants["rank_identical"] && !reflect.DeepEqual(got, want[i]) {
			r.Invariants["rank_identical"] = false
			fmt.Fprintf(w, "%s: query %v diverged from the reference ranking:\nreference %v\ngot       %v\n",
				name, q, want[i], got)
		}
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(queries))
	for k := range r.Counters {
		r.Counters[k] /= n
	}
	r.Timings = wallClock(lat)
	r.Timings["allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	return r
}
