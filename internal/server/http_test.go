package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwr/internal/core"
	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/server"
)

// blockingEngine parks every query until released, so tests can fill
// the worker pool and the wait queue deterministically; it records the
// order the queries reached it in.
type blockingEngine struct {
	release chan struct{}
	calls   atomic.Int64

	mu    sync.Mutex
	order []string // terms[0] of each query, in call order
}

func (e *blockingEngine) QueryTopK(terms []string, k int) qproc.QueryResult {
	e.mu.Lock()
	e.order = append(e.order, terms[0])
	e.mu.Unlock()
	e.calls.Add(1)
	<-e.release
	return qproc.QueryResult{LatencyMs: 1, Results: []rank.Result{{Doc: 7, Score: 1}}}
}
func (e *blockingEngine) QueryTopKWithin(terms []string, k int, _ float64) qproc.QueryResult {
	return e.QueryTopK(terms, k)
}
func (e *blockingEngine) K() int                   { return 1 }
func (e *blockingEngine) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (e *blockingEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontendQueueFull: with one worker busy and one request queued, a
// third arrival overflows the bounded queue.
func TestFrontendQueueFull(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{})}
	f := server.NewFrontend(eng, server.Config{Workers: 1, QueueCap: 1})
	req := server.Request{Terms: []string{"a"}}

	var wg sync.WaitGroup
	park := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st := f.Serve(context.Background(), req)
			if st != server.StatusOK {
				t.Errorf("parked request finished %v", st)
			}
		}()
	}
	// One on the worker, then one in the queue.
	park()
	waitFor(t, "worker occupancy", func() bool { return eng.calls.Load() == 1 })
	park()
	waitFor(t, "queue occupancy", func() bool { return f.Stats().Queued == 1 })

	_, st := f.Serve(context.Background(), req)
	if st != server.StatusShedQueueFull {
		t.Fatalf("third arrival got %v; want queue-full shed", st)
	}

	close(eng.release)
	wg.Wait()
	if s := f.Stats(); s.Served != 2 || s.ShedQueueFull != 1 || s.Offered != 3 {
		t.Fatalf("stats %+v", s)
	}
}

// TestFrontendTimeout: a queued request whose deadline expires before a
// worker frees up times out instead of waiting forever.
func TestFrontendTimeout(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{})}
	f := server.NewFrontend(eng, server.Config{Workers: 1, QueueCap: 5, DeadlineMs: 30})
	req := server.Request{Terms: []string{"a"}}

	done := make(chan server.Status, 1)
	go func() {
		_, st := f.Serve(context.Background(), req)
		done <- st
	}()
	waitFor(t, "worker occupancy", func() bool { return eng.calls.Load() == 1 })

	if _, st := f.Serve(context.Background(), req); st != server.StatusTimeout {
		t.Fatalf("queued request got %v; want timeout", st)
	}

	close(eng.release)
	if st := <-done; st != server.StatusTimeout {
		// The parked request also carried the 30 ms deadline and the
		// worker never freed within it — but it raced the release, so
		// accept OK too.
		if st != server.StatusOK {
			t.Fatalf("parked request finished %v", st)
		}
	}
}

// TestFrontendHTTP drives the real handler over httptest against a real
// engine: /search answers with ranked hits, /stats counts it, /healthz
// is green.
func TestFrontendHTTP(t *testing.T) {
	eng, lg := benchEngine(t)
	f := server.NewFrontend(eng, server.Config{Workers: 4, DeadlineMs: 5000})
	f.Resolve = func(doc int) string { return fmt.Sprintf("http://site/%d", doc) }
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	q := lg.Queries[0]
	resp, err := http.Get(srv.URL + "/search?k=5&q=" + url.QueryEscape(q.Key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search returned %d", resp.StatusCode)
	}
	var sr struct {
		Status  string `json:"status"`
		Results []struct {
			Doc int    `json:"doc"`
			URL string `json:"url"`
		} `json:"results"`
		LatencyMs float64 `json:"latency_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != "ok" {
		t.Fatalf("status %q", sr.Status)
	}
	if len(sr.Results) == 0 || len(sr.Results) > 5 {
		t.Fatalf("%d results for k=5", len(sr.Results))
	}
	if sr.Results[0].URL == "" {
		t.Fatal("Resolve not applied to hits")
	}

	r3, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.FrontStats
	if err := json.NewDecoder(r3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if st.Offered != 1 || st.Served != 1 {
		t.Fatalf("stats offered=%d served=%d; want 1/1", st.Offered, st.Served)
	}

	r4, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", r4.StatusCode)
	}
}

// TestEveryPartitionDownIsA502: with every partition of a real engine
// marked down, a query has no answer to degrade to, so /search answers
// 502 "failed", as /healthz's 503 says it must, and /stats books one
// engine failure and nothing served.
func TestEveryPartitionDownIsA502(t *testing.T) {
	eng, lg := benchEngine(t)
	for p := 0; p < eng.K(); p++ {
		eng.SetDown(p, true)
	}
	f := server.NewFrontend(eng, server.Config{Workers: 1})
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with every partition down: HTTP %d, want 503", code)
	}
	if code, body := get("/search?k=5&q=" + url.QueryEscape(lg.Queries[0].Key)); code != http.StatusBadGateway || body["status"] != "failed" {
		t.Fatalf("/search with every partition down: HTTP %d %v, want 502 failed", code, body)
	}
	if _, body := get("/stats"); body["engine_failed"] != 1.0 || body["served"] != 0.0 {
		t.Fatalf("/stats after one query with every partition down: %v, want engine_failed 1, served 0", body)
	}
}

// TestStatsReportsOverflowQuantiles: once a served request outlasts the
// last latency bucket (5 000 ms), the quantiles fall in the overflow
// bucket. /stats must still answer a decodable 200, reporting them as
// that bound; and a value that cannot encode is a 500 with a JSON error,
// never a 200 with an empty body.
func TestStatsReportsOverflowQuantiles(t *testing.T) {
	f := server.NewFrontend(sleepEngine{}, server.Config{Workers: 1})
	f.ObserveLatency(6000)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.FrontStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: HTTP %d, decode: %v", resp.StatusCode, err)
	}
	if st.P50Ms != 5000 || st.P95Ms != 5000 || st.P99Ms != 5000 {
		t.Fatalf("quantiles p50/p95/p99 = %v/%v/%v ms; want the last bound 5000", st.P50Ms, st.P95Ms, st.P99Ms)
	}

	rec := httptest.NewRecorder()
	server.WriteJSON(rec, http.StatusOK, map[string]float64{"p99_ms": math.Inf(1)})
	var body map[string]string
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || rec.Code != http.StatusInternalServerError || body["error"] == "" {
		t.Fatalf("unencodable body: HTTP %d %v (decode: %v); want 500 with a JSON error", rec.Code, body, err)
	}
}

// TestSearchBoundsItsInput: /search validates q and k before anything
// reaches the engine, and every answer — the 400s included — is JSON.
func TestSearchBoundsItsInput(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{})}
	close(eng.release)
	srv := httptest.NewServer(server.NewFrontend(eng, server.Config{Workers: 1}).Handler())
	defer srv.Close()

	cases := []struct {
		query string
		code  int
	}{
		{"q=foo", http.StatusOK},
		{"q=foo&k=1", http.StatusOK},
		{"q=foo&k=1000", http.StatusOK},
		{"", http.StatusBadRequest},
		{"q=+", http.StatusBadRequest},
		{"q=foo&k=0", http.StatusBadRequest},
		{"q=foo&k=-1", http.StatusBadRequest},
		{"q=foo&k=ten", http.StatusBadRequest},
		{"q=foo&k=1001", http.StatusBadRequest},
		{"q=foo&k=2000000000", http.StatusBadRequest},
	}
	served := int64(0)
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + "/search?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || err != nil || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("/search?%s: HTTP %d %q (decode: %v), want %d application/json",
				tc.query, resp.StatusCode, resp.Header.Get("Content-Type"), err, tc.code)
		}
		if tc.code == http.StatusOK {
			served++
		} else if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("/search?%s: 400 body %v names no error", tc.query, body)
		}
	}
	if got := eng.calls.Load(); got != served {
		t.Fatalf("engine saw %d queries, want %d: a rejected request reached it", got, served)
	}
}

// TestFrontendConcurrentLoad hammers Serve from many goroutines over a
// real engine — the -race exercise for the whole pipeline, plus the
// accounting identity under concurrency.
func TestFrontendConcurrentLoad(t *testing.T) {
	eng, lg := benchEngine(t)
	f := server.NewFrontend(eng, server.Config{
		Workers:    4,
		QueueCap:   8,
		DeadlineMs: 5000,
		AdmitRate:  1e6,
		Shed:       server.ShedConfig{TargetP99Ms: 5000},
	})
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q := lg.Queries[(g*each+i)%len(lg.Queries)]
				cl := server.Interactive
				if i%3 == 0 {
					cl = server.Batch
				}
				f.Serve(context.Background(), server.Request{Terms: q.Terms, Class: cl})
			}
		}(g)
	}
	wg.Wait()
	st := f.Stats()
	if st.Offered != goroutines*each {
		t.Fatalf("offered %d; want %d", st.Offered, goroutines*each)
	}
	if total := st.Served + st.ShedOverload + st.ShedAdmission + st.ShedQueueFull +
		st.Timeout + st.Failed; total != st.Offered {
		t.Fatalf("outcomes %d do not partition offered %d: %+v", total, st.Offered, st)
	}
	if st.Served == 0 {
		t.Fatal("nothing served under plain load")
	}
}

// sleepEngine holds a worker for a wall-clock interval per query.
type sleepEngine struct{ d time.Duration }

func (e sleepEngine) QueryTopK([]string, int) qproc.QueryResult {
	time.Sleep(e.d)
	return qproc.QueryResult{LatencyMs: 1}
}
func (e sleepEngine) QueryTopKWithin(terms []string, k int, _ float64) qproc.QueryResult {
	return e.QueryTopK(terms, k)
}
func (sleepEngine) K() int                   { return 1 }
func (sleepEngine) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (sleepEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

// TestFrontendJudgesItsOwnClock: the front-end holds the deadline to
// its own wall clock, arrival to verdict, and /search reports that time.
// An engine whose cost model says 1e6 ms but which answers at once is
// served; one that outlasts the budget in wall time is a 504, counted
// once in /stats.
func TestFrontendJudgesItsOwnClock(t *testing.T) {
	search := func(f *server.Frontend) (code int, body map[string]any) {
		t.Helper()
		srv := httptest.NewServer(f.Handler())
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/search?q=a&k=3")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := search(server.NewFrontend(hitsEngine{modelledMs: 1e6}, server.Config{Workers: 1, DeadlineMs: 50}))
	lat, _ := body["latency_ms"].(float64)
	if hits, _ := body["results"].([]any); code != http.StatusOK || len(hits) != 3 || lat >= 50 {
		t.Errorf("a modelled 1e6 ms answered at once under a 50 ms budget: HTTP %d, %d results, latency_ms %v; want 200, 3, below 50",
			code, len(hits), lat)
	}

	f := server.NewFrontend(sleepEngine{50 * time.Millisecond}, server.Config{Workers: 1, DeadlineMs: 5})
	code, body = search(f)
	if lat, _ := body["latency_ms"].(float64); code != http.StatusGatewayTimeout || body["status"] != "timeout" || lat < 50 {
		t.Errorf("a 50 ms answer under a 5 ms budget: HTTP %d %v; want 504 timeout after at least 50 ms", code, body)
	}
	if s := f.Stats(); s.Timeout != 1 || s.Failed != 0 || s.EngineFailed != 0 || s.Served != 0 {
		t.Errorf("/stats after one late answer: %+v; want timeout 1, failed 0, engine_failed 0", s)
	}
}

// TestFrontendShedsDoNotFeedShedder: only requests that held a worker
// feed the shedding controller and the /stats quantiles. Two slow
// completions close a control window and raise the level; the ~0 ms
// sheds that follow must neither lower it nor drag the quantiles down.
func TestFrontendShedsDoNotFeedShedder(t *testing.T) {
	f := server.NewFrontend(sleepEngine{20 * time.Millisecond}, server.Config{
		Workers:    1,
		AdmitRate:  1e-9, // the burst, then nothing
		AdmitBurst: 2,
		Shed:       server.ShedConfig{TargetP99Ms: 5, Window: 2},
	})
	req := server.Request{Terms: []string{"a"}}
	for i := 0; i < 2; i++ {
		if _, st := f.Serve(context.Background(), req); st != server.StatusOK {
			t.Fatalf("slow request %d: %v", i, st)
		}
	}
	raised := f.Stats().ShedLevel
	if raised <= 0 {
		t.Fatalf("two 20 ms completions against a 5 ms target left the level at %v", raised)
	}
	for i := 0; i < 20; i++ {
		if _, st := f.Serve(context.Background(), req); st == server.StatusOK {
			t.Fatalf("request %d past the burst was served", i)
		}
	}
	s := f.Stats()
	if s.ShedLevel != raised {
		t.Errorf("20 sheds moved the level from %v to %v", raised, s.ShedLevel)
	}
	if s.P50Ms < 20 {
		t.Errorf("p50 %v ms: sheds are in the served-latency quantiles", s.P50Ms)
	}
}

// TestFrontendSoak is the -race exercise for the wait queue: overload,
// deadline expiry in the queue and clients that hang up, against a slow
// engine. Afterwards nothing may be queued, no worker held, no outcome
// unaccounted for and no goroutine left behind — a waiter that abandons
// its ticket just as dispatch picks it would leak a worker.
func TestFrontendSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := server.NewFrontend(sleepEngine{2 * time.Millisecond}, server.Config{
		Workers:    4,
		QueueCap:   8,
		DeadlineMs: 5,
		Shed:       server.ShedConfig{TargetP99Ms: 4, Window: 20},
	})
	const clients, each = 16, 30
	var wg sync.WaitGroup
	wg.Add(clients)
	for g := 0; g < clients; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch (g + i) % 3 {
				case 1: // hangs up while queued
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%4)*time.Millisecond)
				case 2: // gone before it arrives
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				cl := server.Interactive
				if i%2 == 0 {
					cl = server.Batch
				}
				f.Serve(ctx, server.Request{Terms: []string{"a"}, Class: cl})
				cancel()
			}
		}()
	}
	wg.Wait()

	s := f.Stats()
	if s.Queued != 0 || f.Busy() != 0 {
		t.Errorf("idle front-end has %d queued, %d workers busy", s.Queued, f.Busy())
	}
	if total := s.Served + s.ShedOverload + s.ShedAdmission + s.ShedQueueFull + s.Timeout + s.Failed; s.Offered != clients*each || total != s.Offered {
		t.Errorf("offered %d (want %d), outcomes %d: %+v", s.Offered, clients*each, total, s)
	}
	if s.Served == 0 || s.Timeout == 0 || s.ShedQueueFull == 0 {
		t.Errorf("the soak did not reach every path: %+v", s)
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestFrontendFreeWorkerPathAllocatesNothing pins the per-request
// overhead of the path bench/ measures: a request that finds a free
// worker takes no ticket, no channel and no timer.
func TestFrontendFreeWorkerPathAllocatesNothing(t *testing.T) {
	f := server.NewFrontend(sleepEngine{}, server.Config{Workers: 2})
	req := server.Request{Terms: []string{"a"}}
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() { f.Serve(ctx, req) }); n != 0 {
		t.Errorf("Serve on a free worker allocates %v times; want 0", n)
	}
}

// TestSearchBodyAllocatesNothing pins the /search success path's own
// cost: a k=100 body appended into a warm buffer, its URLs resolved
// through the corpus's URL table, allocates nothing, and neither does
// one URL lookup.
func TestSearchBodyAllocatesNothing(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Web.Hosts, cfg.Web.MaxPages, cfg.Web.VocabSize = 40, 40, 1500
	c, err := core.Crawl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) < 100 {
		t.Fatalf("%d documents; the test needs 100", len(c.Docs))
	}
	qr := qproc.QueryResult{LatencyMs: 0.731, FromCache: true}
	for i, d := range c.Docs[:100] {
		qr.Results = append(qr.Results, rank.Result{Doc: d.Ext, Score: 12.5 / float64(i*i*i+1)})
	}
	resolve := c.URLOf
	b, err := server.AppendSearch(nil, server.StatusOK, &qr, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		b, _ = server.AppendSearch(b[:0], server.StatusOK, &qr, resolve)
	}); n != 0 {
		t.Errorf("appending a k=100 body into a warm buffer allocates %v times; want 0", n)
	}
	var u string
	doc := c.Docs[50].Ext
	if n := testing.AllocsPerRun(1000, func() { u = c.URLOf(doc) }); n != 0 || u == "" {
		t.Errorf("URLOf(%d) = %q allocates %v times; want a URL and 0", doc, u, n)
	}
}

// headerSink is a ResponseWriter that keeps one header map and discards
// the body, so a test can count what a handler's own writes allocate.
type headerSink struct {
	h    http.Header
	code int
}

func (s *headerSink) Header() http.Header         { return s.h }
func (s *headerSink) WriteHeader(code int)        { s.code = code }
func (s *headerSink) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteSearchHeadersAllocateNothing: a warm /search answer that fits
// net/http's response buffer sets its headers without allocating — the
// shared Content-Type value, and no Content-Length, which net/http
// formats itself.
func TestWriteSearchHeadersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops Puts at random")
	}
	qr := qproc.QueryResult{LatencyMs: 0.731}
	for i := range 10 {
		qr.Results = append(qr.Results, rank.Result{Doc: 1000 + i, Score: 9.75 - float64(i)/64})
	}
	w := &headerSink{h: http.Header{}}
	write := func() {
		clear(w.h)
		server.WriteSearch(w, server.StatusOK, &qr, nil)
	}
	write()
	if got := w.h.Get("Content-Type"); got != "application/json" || w.code != http.StatusOK {
		t.Fatalf("HTTP %d, Content-Type %q; want 200 application/json", w.code, got)
	}
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Errorf("writing a k=10 /search answer allocates %v times; want 0", n)
	}
}

// TestSearchBodyLengthIgnoresTheClock: latency_ms is wall time, so a
// body's length must not move with it — bench/ counts
// server.resp_bytes as work done, to repeat exactly for a seed.
func TestSearchBodyLengthIgnoresTheClock(t *testing.T) {
	var want int
	for i, ms := range []float64{0, 0.001, 0.12, 0.731, 9.999, 12.5, 1000, 86400000} {
		qr := qproc.QueryResult{LatencyMs: ms, Results: []rank.Result{{Doc: 3, Score: 1.5}}}
		b, err := server.AppendSearch(nil, server.StatusOK, &qr, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sr struct {
			LatencyMs float64 `json:"latency_ms"`
		}
		if err := json.Unmarshal(b, &sr); err != nil || math.Abs(sr.LatencyMs-ms) > ms*1e-3 {
			t.Errorf("latency %v ms: body %q decodes to %v (%v)", ms, b, sr.LatencyMs, err)
		}
		if i == 0 {
			want = len(b)
		} else if len(b) != want {
			t.Errorf("latency %v ms: %d-byte body %q; %d bytes at 0 ms", ms, len(b), b, want)
		}
	}
}

// hitsEngine answers every query at once with k results and a modelled
// latency of modelledMs.
type hitsEngine struct{ modelledMs float64 }

func (e hitsEngine) QueryTopK(_ []string, k int) qproc.QueryResult {
	qr := qproc.QueryResult{LatencyMs: e.modelledMs}
	for i := 0; i < k; i++ {
		qr.Results = append(qr.Results, rank.Result{Doc: 1000 + i, Score: 9.75 - float64(i)/64})
	}
	return qr
}

// QueryTopKWithin drops an answer whose modelled latency busts the
// budget, as the qproc engines do.
func (e hitsEngine) QueryTopKWithin(terms []string, k int, deadlineMs float64) qproc.QueryResult {
	qr := e.QueryTopK(terms, k)
	if deadlineMs > 0 && qr.LatencyMs > deadlineMs {
		qr = qproc.QueryResult{Err: qproc.ErrDeadlineExceeded, LatencyMs: deadlineMs}
	}
	return qr
}
func (hitsEngine) K() int                   { return 1 }
func (hitsEngine) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (hitsEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

// TestSearchSendsItsLength: every /search body goes out with its
// Content-Length, never chunked — ones of 2 047 and 2 048 bytes, inside
// net/http's 2 KiB response buffer, whose length net/http sets; one of
// 2 049 bytes and a k=100 body, past it, whose length writeSearch sets.
func TestSearchSendsItsLength(t *testing.T) {
	var pad atomic.Int64 // the first result's URL length, when positive
	f := server.NewFrontend(hitsEngine{}, server.Config{Workers: 1})
	f.Resolve = func(doc int) string {
		if n := pad.Load(); n > 0 && doc == 1000 {
			return "http://" + strings.Repeat("u", int(n))
		}
		return fmt.Sprintf("http://h%04d.example/page/%d", doc%97, doc)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(k int) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/search?q=a&k=%d", srv.URL, k))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d (read: %v); want a 200", resp.StatusCode, err)
		}
		return resp, body
	}
	// latency_ms is nine bytes at any latency, so one URL byte more is
	// one body byte more.
	pad.Store(1)
	_, one := get(1)
	for _, size := range []int{2047, 2048, 2049, 0} {
		k := 100
		if size > 0 {
			k = 1
			pad.Store(int64(1 + size - len(one)))
		}
		resp, body := get(k)
		if size > 0 && len(body) != size {
			t.Fatalf("k=1 body of %d bytes; the fixture wants %d", len(body), size)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body; want its length, unchunked",
				resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if size == 0 {
			var sr struct {
				Results []struct {
					URL string `json:"url"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &sr); err != nil || len(body) <= 2048 || len(sr.Results) != 100 || sr.Results[99].URL == "" {
				t.Fatalf("%d-byte body decoded to %d results (%v); want 100 with URLs, past 2 KiB", len(body), len(sr.Results), err)
			}
		}
	}
}

// BenchmarkAppendSearch is the microbenchmark behind bench/'s traced
// server.self_us on static_top100: one k=100 /search body, every result
// with a URL, appended into a warm buffer. MB/s counts body bytes, the
// size server.resp_bytes reports.
func BenchmarkAppendSearch(b *testing.B) {
	qr := qproc.QueryResult{LatencyMs: 0.731}
	urls := make([]string, 100)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://h%04d.example/p/%d", i%40, i)
		qr.Results = append(qr.Results, rank.Result{Doc: i, Score: 12.5 / float64(i*i*i+1)})
	}
	resolve := func(doc int) string { return urls[doc] }
	body, err := server.AppendSearch(nil, server.StatusOK, &qr, resolve)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ = server.AppendSearch(body[:0], server.StatusOK, &qr, resolve)
	}
}
