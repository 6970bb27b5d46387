package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
				f.Serve(context.Background(), server.Request{Terms: q.Terms, Key: q.Key, Class: cl})
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
func (sleepEngine) K() int                   { return 1 }
func (sleepEngine) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (sleepEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

// TestFrontendShedsDoNotFeedShedder: only requests that held a worker
// feed the shedding controller and the /stats quantiles. Two slow
// completions close a control window and raise the level; the ~0 ms
// sheds that follow must neither lower it nor drag the quantiles down.
func TestFrontendShedsDoNotFeedShedder(t *testing.T) {
	f := server.NewFrontend(sleepEngine{20 * time.Millisecond}, server.Config{
		Workers:    1,
		AdmitRate:  1e-9, // the burst, then nothing
		AdmitBurst: 2,
		Shed:       server.ShedConfig{TargetP99Ms: 5, Window: 2, Step: 0.05},
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
