package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/qproc"
)

// span is one timed call into a layer. Spans of one op share Query (the
// op's index in the script); Parent is the ID of the enclosing span, 0
// at the top.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory. The traced pass has one client, so
// exactly one op is in flight and its spans nest strictly — client
// goroutine, then server goroutine, then back — which lets a single
// stack of open spans supply every parent. A nil *tracer records
// nothing, so the untraced passes run the same code without it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) begin(name string, query int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Query: query, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
		s.Query = t.spans[s.Parent-1].Query
	}
	t.open = append(t.open, s.ID)
	s.StartNs = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler is the timing middleware around Frontend.Handler().
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin("server.handler", -1)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// tracedEngine is the qproc.Engine handed to the traced front-end: it
// times QueryTopK and keeps the work counters of every answer. (No
// deadline is configured, so the front-end never asks for a
// DeadlineQuerier.)
type tracedEngine struct {
	qproc.Engine
	tr *tracer

	mu      sync.Mutex
	answers []qproc.QueryResult // without their result lists
}

func (e *tracedEngine) QueryTopK(terms []string, k int) qproc.QueryResult {
	id := e.tr.begin("qproc.query", -1)
	qr := e.Engine.QueryTopK(terms, k)
	e.tr.end(id)
	counters := qr
	counters.Results = nil
	e.mu.Lock()
	e.answers = append(e.answers, counters)
	e.mu.Unlock()
	return qr
}

// procSnap is the process-wide cost counters the proc.* metrics difference.
type procSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
	cpu            time.Duration
}

func snapProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs, cpu}
}

func storeStats(stores []*index.SegmentStore) []index.SegmentStats {
	st := make([]index.SegmentStats, len(stores))
	for i, s := range stores {
		st[i] = s.Stats()
	}
	return st
}

func meanNs(lat []int64) float64 {
	if len(lat) == 0 {
		return 0
	}
	var s int64
	for _, v := range lat {
		s += v
	}
	return float64(s) / float64(len(lat))
}

// tracedPass drives the first traceOps ops of the script with one
// client against a second front-end that carries the timing middleware
// and the engine decorator; plainAddr is the front-end without them. It
// returns every per-layer metric; the ones a workload does not exercise
// are 0.
func (r *run) tracedPass(plainAddr string) (map[string]float64, *tracer, error) {
	ops := r.sc.ops[:min(r.p.traceOps, len(r.sc.ops))]
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 4*len(ops))}
	te := &tracedEngine{Engine: r.sys.eng, tr: tr}
	front := newFrontend(te, r.sys.resolve)
	traced, err := listen(traceHandler(tr, front.Handler()))
	if err != nil {
		return nil, nil, err
	}
	defer traced.close()
	stub, err := listen(stubHandler())
	if err != nil {
		return nil, nil, err
	}
	defer stub.close()

	var stores []*index.SegmentStore
	if r.w.live {
		stores = r.sys.live.stores
	}
	cache0, store0 := r.sys.eng.Stats().ResultCache, storeStats(stores)
	runtime.GC()
	speed := probeMany(8)
	proc0 := snapProc()
	one := pass{clients: dial(traced.addr, 1), ops: ops, checkEvery: 64, ingest: true, tr: tr}
	defer hangUp(one.clients)
	res := r.drive(one)
	proc1 := snapProc()
	speed = append(speed, probeMany(8)...)
	cache1, store1 := r.sys.eng.Stats().ResultCache, storeStats(stores)
	var waves, skipped, contacted, postings, lists, decoded float64
	for _, qr := range te.answers {
		waves += float64(qr.Waves)
		skipped += float64(qr.PartitionsSkipped)
		contacted += float64(qr.ServersContacted)
		postings += float64(qr.PostingsDecoded)
		lists += float64(qr.ListsAccessed)
		decoded += float64(qr.PostingBytesDecoded)
	}

	// The times below are raw; this is the speed they were taken at.
	m := map[string]float64{"machine.slowdown": median(speed) / refNominalNs}
	nq := float64(res.queries)
	spans := len(tr.spans)
	us := func(name string) float64 { return meanNs(tr.durations(name)) / 1e3 }
	rtt, handler, query := us("http"), us("server.handler"), us("qproc.query")
	m["http.rtt_us"] = rtt
	m["http.self_us"] = rtt - handler
	m["server.handler_us"] = handler
	m["server.self_us"] = handler - query
	m["server.resp_bytes"] = metrics.Ratio(float64(res.respBytes), nq)
	fs := front.Stats()
	m["server.non_ok"] = float64(fs.Offered - fs.Served)
	m["qproc.query_us"] = query
	m["qproc.waves_per_query"] = metrics.Ratio(waves, nq)
	m["qproc.partitions_skipped_per_query"] = metrics.Ratio(skipped, nq)
	m["qproc.servers_contacted_per_query"] = metrics.Ratio(contacted, nq)
	m["rank.postings_per_query"] = metrics.Ratio(postings, nq)
	m["index.lists_per_query"] = metrics.Ratio(lists, nq)
	m["index.bytes_decoded_per_query"] = metrics.Ratio(decoded, nq)
	if r.w.live {
		m["qproc.live_query_us"] = query
		m["qproc.live_postings_per_query"] = m["rank.postings_per_query"]
	}
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	m["cache.hit_ratio"] = metrics.Ratio(float64(hits), float64(hits+misses))
	m["cache.stale_gen"] = float64(cache1.StaleGen - cache0.StaleGen)

	m["proc.allocs_per_query"] = metrics.Ratio(float64(proc1.mallocs-proc0.mallocs), nq)
	m["proc.alloc_kb_per_query"] = metrics.Ratio(float64(proc1.bytes-proc0.bytes)/1024, nq)
	m["proc.gc_cycles"] = float64(proc1.gcs - proc0.gcs)
	m["proc.gc_pause_ms"] = float64(proc1.pauseNs-proc0.pauseNs) / 1e6
	m["proc.cpu_ms_per_query"] = metrics.Ratio(float64(proc1.cpu-proc0.cpu)/1e6, nq)
	m["trace.overhead_ratio"] = r.traceOverhead(one, plainAddr)
	tr.spans = tr.spans[:spans] // the overhead replay's spans are not the traced pass
	// The stub's body is not a ranking: check nothing.
	stubbed := pass{clients: dial(stub.addr, 1), ops: ops}
	defer hangUp(stubbed.clients)
	m["http.stub_rtt_us"] = meanNs(r.drive(stubbed).lat) / 1e3

	if r.w.live {
		adds := tr.durations("index.add")
		slices.Sort(adds)
		m["index.add_us_p50"] = percentile(adds, 0.50) / 1e3
		m["index.add_us_mean"] = meanNs(adds) / 1e3
		m["textproc.parse_us_per_doc"] = us("textproc.parse")
		m["ingest.ms_per_doc"] = metrics.Ratio(float64(res.ingestNs)/1e6, float64(res.ingested))
		var seals, merges, merged, segments float64
		for i, after := range store1 {
			seals += float64(after.Applied - store0[i].Applied)
			merges += float64(after.Merges - store0[i].Merges)
			merged += float64(after.MergedDocs - store0[i].MergedDocs)
			segments += float64(after.Segments)
		}
		m["index.seals"], m["index.merges"], m["index.merged_docs"] = seals, merges, merged
		m["index.write_amp"] = metrics.Ratio(float64(len(adds))+merged, float64(len(adds)))
		m["index.segments_final"] = segments
		m["crawler.crawl_s"] = r.sys.crawlS
		m["crawler.pages_per_s"] = metrics.Ratio(float64(len(r.sys.live.pages)), r.sys.crawlS)
	}
	r.probes(ops, m)
	return m, tr, nil
}

// traceOverhead replays the traced pass's queries in blocks that
// alternate between the plain and the traced front-end, and returns the
// traced median round trip over the plain one. Blocks of 200 ops are far
// shorter than this box's speed drift, and swapping which side goes first
// shares out the warm CPU cache the second replay of a block finds.
func (r *run) traceOverhead(traced pass, plainAddr string) float64 {
	traced.ingest = false
	plain := traced
	plain.clients, plain.tr = dial(plainAddr, 1), nil
	defer hangUp(plain.clients)
	var lat [2][]int64
	const block = 200
	for lo, n := 0, 0; lo < len(traced.ops); lo, n = lo+block, n+1 {
		sides := [2]pass{plain, traced}
		for i := range sides {
			s := (i + n) % 2
			sides[s].ops, sides[s].first = traced.ops[lo:min(lo+block, len(traced.ops))], lo
			lat[s] = append(lat[s], r.drive(sides[s]).lat...)
		}
	}
	slices.Sort(lat[0])
	slices.Sort(lat[1])
	return metrics.Ratio(percentile(lat[1], 0.5), percentile(lat[0], 0.5))
}

// durations returns the lengths in ns of the spans called name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndNs-s.StartNs)
		}
	}
	return out
}

// percentile is the nearest-rank q-quantile of v, which is sorted, in
// v's unit.
func percentile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(q*float64(len(v))+0.5) - 1
	return float64(v[max(0, min(i, len(v)-1))])
}
