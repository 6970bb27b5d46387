package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dwr/internal/metrics"
	"dwr/internal/qproc"
)

// Status is the front-end's verdict on one request.
type Status int

// Statuses, in the order a request meets the pipeline stages.
const (
	StatusOK            Status = iota
	StatusShedOverload         // adaptive shedder (latency SLO defense)
	StatusShedAdmission        // token bucket
	StatusShedQueueFull        // bounded wait queue overflowed
	StatusTimeout              // deadline expired while queued or serving
	StatusFailed               // engine refused (fault policy, all units down)
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusShedOverload:
		return "shed-overload"
	case StatusShedAdmission:
		return "shed-admission"
	case StatusShedQueueFull:
		return "shed-queue-full"
	case StatusTimeout:
		return "timeout"
	default:
		return "failed"
	}
}

// HTTPCode maps a status to its HTTP response code: shed responses are
// 429 (admission pacing — retry later) or 503 (overload — back off),
// and deadline misses are 504.
func (s Status) HTTPCode() int {
	switch s {
	case StatusOK:
		return http.StatusOK
	case StatusShedAdmission:
		return http.StatusTooManyRequests
	case StatusTimeout:
		return http.StatusGatewayTimeout
	case StatusFailed:
		return http.StatusBadGateway
	default:
		return http.StatusServiceUnavailable
	}
}

// Frontend is the wall-clock driver of the serving queue: the state
// machine Run steps in virtual time, stepped here under one mutex by
// the goroutines net/http runs requests on. A request that finds a free
// worker evaluates on its own goroutine; one that must wait parks on
// its ticket's wake channel until a completing request dispatches it,
// or until its deadline or its client's context ends the wait. It is
// safe for concurrent use; the wrapped engine must be safe for
// concurrent queries (every qproc engine is).
type Frontend struct {
	// Tokenize turns free text into query terms (set before serving;
	// defaults to lower-cased whitespace splitting).
	Tokenize func(string) []string
	// Resolve maps a result document ID to a URL for /search responses
	// (optional).
	Resolve func(doc int) string

	// mu guards q and lat. The clock (seconds since start) is read under
	// it, so the queue sees time that never runs backwards.
	mu    sync.Mutex
	start time.Time
	q     *queue
	lat   *metrics.Histogram // latency of served requests, ms
}

// NewFrontend wraps eng behind the serving pipeline cfg describes.
func NewFrontend(eng qproc.Engine, cfg Config) *Frontend {
	return &Frontend{
		start: time.Now(),
		q:     newQueue(eng, cfg),
		lat:   metrics.NewHistogram(metrics.DefaultLatencyBounds()),
		Tokenize: func(s string) []string {
			return strings.Fields(strings.ToLower(s))
		},
	}
}

// Serve runs one request through admission, the queue, and a worker.
// The QueryResult is the engine's — the answer on StatusOK — and zero
// for a request that never reached a worker.
func (f *Frontend) Serve(ctx context.Context, req Request) (qr qproc.QueryResult, st Status) {
	f.mu.Lock()
	a := Arrival{At: time.Since(f.start).Seconds(), Req: req}
	t, st := f.q.arrive(a, a.At)
	if t != nil {
		t.wake = make(chan Status, 1) // holds the one verdict the ticket gets
	}
	f.mu.Unlock()
	start := a.At
	if t != nil {
		st = f.wait(ctx, t)
		start = t.start
	}
	if st != StatusOK {
		return qr, st
	}
	qr.Err = errAborted
	defer func() { st = f.complete(a, &qr) }()
	qr = f.q.query(a, start)
	return qr, st
}

// errAborted is what a panicking engine leaves in qr: Serve defers the
// completion so the worker comes back even then (net/http recovers).
var errAborted = errors.New("server: engine call aborted")

// wait parks the caller until t's verdict arrives: from dispatch, or
// from the caller itself when ctx or the deadline ends the wait first.
func (f *Frontend) wait(ctx context.Context, t *ticket) Status {
	if d := f.q.cfg.DeadlineMs; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, f.start.Add(time.Duration((t.a.At+d/1000)*float64(time.Second))))
		defer cancel()
	}
	select {
	case st := <-t.wake:
		return st
	case <-ctx.Done():
	}
	f.mu.Lock()
	if f.q.abandon(t) {
		t.wake <- StatusTimeout
	}
	f.mu.Unlock()
	// Else dispatch got there first and sent the verdict: on StatusOK this
	// request holds a worker and must use it.
	return <-t.wake
}

// complete books a's outcome and wakes the waiters dispatch hands the
// freed worker to (or evicts).
func (f *Frontend) complete(a Arrival, qr *qproc.QueryResult) Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Since(f.start).Seconds()
	st, latMs := f.q.complete(a, qr, now)
	if st == StatusOK {
		f.lat.Add(latMs)
	}
	for t, v := f.q.dispatch(now); t != nil; t, v = f.q.dispatch(now) {
		t.wake <- v // never blocks: buffered for the ticket's one verdict
	}
	return st
}

// FrontStats is the /stats snapshot.
type FrontStats struct {
	Offered       int64   `json:"offered"`
	Served        int64   `json:"served"`
	ShedOverload  int64   `json:"shed_overload"`
	ShedAdmission int64   `json:"shed_admission"`
	ShedQueueFull int64   `json:"shed_queue_full"`
	Timeout       int64   `json:"timeout"`
	Failed        int64   `json:"failed"`
	Queued        int64   `json:"queued"`
	ShedLevel     float64 `json:"shed_level"`

	// Served-latency quantiles, rounded up to a histogram bucket bound. A
	// quantile past the last bound (5 000 ms) reports that bound: read it
	// as "at least".
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`

	EngineQueries  int `json:"engine_queries"`
	EngineDegraded int `json:"engine_degraded"`
	EngineFailed   int `json:"engine_failed"`
	UnitsLive      int `json:"units_live"`
	Units          int `json:"units"`

	// Selection is present when the engine runs a query mediator
	// (collection selection on the serving path).
	Selection *SelectionStats `json:"selection,omitempty"`
}

// SelectionStats is the /stats view of the engine's collection-selection
// counters: how many queries were pruned to a site subset, the fan-out
// saved, and the sampled Recall@k of mediated answers against the
// exhaustive fan-out.
type SelectionStats struct {
	Queries        int     `json:"queries"`
	Mediated       int     `json:"mediated"`
	FullFanout     int     `json:"full_fanout"`
	SitesContacted int     `json:"sites_contacted"`
	SitesSkipped   int     `json:"sites_skipped"`
	RecallSamples  int     `json:"recall_samples"`
	MeanRecall     float64 `json:"mean_recall"`
}

// Stats snapshots the front-end and engine counters. The latency
// quantiles are of served requests, as Report's are.
func (f *Frontend) Stats() FrontStats {
	f.mu.Lock()
	r := &f.q.rep
	st := FrontStats{
		Offered:       int64(r.Offered),
		Served:        int64(r.Served),
		ShedOverload:  int64(r.ShedOverload),
		ShedAdmission: int64(r.ShedAdmission),
		ShedQueueFull: int64(r.ShedQueueFull),
		Timeout:       int64(r.EvictedDeadline + r.EngineDeadline),
		Failed:        int64(r.EngineFailed),
		Queued:        int64(f.q.queued()),
		ShedLevel:     f.q.shed.Level(),
		P50Ms:         f.servedQuantile(0.50),
		P95Ms:         f.servedQuantile(0.95),
		P99Ms:         f.servedQuantile(0.99),
	}
	f.mu.Unlock()
	es := f.q.eng.Stats()
	st.EngineQueries = es.Queries
	st.EngineDegraded = es.Degraded
	st.EngineFailed = es.Failed
	if es.Selection.Queries > 0 {
		st.Selection = &SelectionStats{
			Queries:        es.Selection.Queries,
			Mediated:       es.Selection.Mediated,
			FullFanout:     es.Selection.FullFanout,
			SitesContacted: es.Selection.SitesContacted,
			SitesSkipped:   es.Selection.SitesSkipped,
			RecallSamples:  es.Selection.RecallSamples,
			MeanRecall:     es.Selection.MeanRecall(),
		}
	}
	h := f.q.eng.Health()
	st.UnitsLive = h.Live()
	st.Units = h.Units
	return st
}

// servedQuantile is f.lat's q-quantile with the overflow bucket's +Inf,
// which JSON cannot carry, reported as the last bound. Call under f.mu.
func (f *Frontend) servedQuantile(q float64) float64 {
	v := f.lat.Quantile(q)
	if math.IsInf(v, 1) {
		b := f.lat.Bounds()
		v = b[len(b)-1]
	}
	return v
}

// Handler returns the HTTP surface: /search, /stats, /healthz.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", f.handleSearch)
	mux.HandleFunc("/stats", f.handleStats)
	mux.HandleFunc("/healthz", f.handleHealthz)
	return mux
}

type searchHit struct {
	Doc   int     `json:"doc"`
	Score float64 `json:"score"`
	URL   string  `json:"url,omitempty"`
}

type searchResponse struct {
	Status    string      `json:"status"`
	Results   []searchHit `json:"results,omitempty"`
	LatencyMs float64     `json:"latency_ms"`
	Degraded  bool        `json:"degraded,omitempty"`
	FromCache bool        `json:"from_cache,omitempty"`
}

// maxK bounds the k a /search request may ask for. An unbounded k never
// fills the top-k heap (so nothing is pruned), mints a result-cache key
// per distinct value, and lets one response carry the whole collection.
const maxK = 1000

// handleSearch answers GET /search?q=terms[&k=10][&class=batch].
func (f *Frontend) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	terms := f.Tokenize(q.Get("q"))
	if len(terms) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing or empty q parameter"})
		return
	}
	req := Request{Terms: terms}
	if q.Get("class") == "batch" {
		req.Class = Batch
	}
	if ks := q.Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil || k <= 0 || k > maxK {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("k must be an integer in 1..%d", maxK)})
			return
		}
		req.K = k
	}
	qr, st := f.Serve(r.Context(), req)
	resp := searchResponse{Status: st.String(), LatencyMs: qr.LatencyMs,
		Degraded: qr.Degraded, FromCache: qr.FromCache}
	for _, res := range qr.Results {
		hit := searchHit{Doc: res.Doc, Score: res.Score}
		if f.Resolve != nil {
			hit.URL = f.Resolve(res.Doc)
		}
		resp.Results = append(resp.Results, hit)
	}
	writeJSON(w, st.HTTPCode(), resp)
}

func (f *Frontend) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.Stats())
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := f.q.eng.Health()
	code := http.StatusOK
	if !h.Healthy() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]interface{}{
		"healthy": h.Healthy(),
		"live":    h.Live(),
		"units":   h.Units,
		"down":    h.Down,
	})
}

// jsonBufs holds response bodies while they are encoded, so a body that
// fails to encode never reaches the client behind a committed status.
var jsonBufs = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// writeJSON answers code with v as JSON, or 500 with a JSON error when v
// does not encode.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A write error means the client went away, which the server loop
	// handles.
	_, _ = w.Write(buf.Bytes())
}
