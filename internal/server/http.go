package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwr/internal/metrics"
	"dwr/internal/qproc"
	"dwr/internal/randx"
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

// Frontend is the wall-clock realization of the serving pipeline: the
// same admission bucket and adaptive shedder as Run, but over real
// goroutines — the worker pool is a semaphore of Config.Workers slots
// and queued requests are goroutines blocked on it. That queue is
// bounded (QueueCap) and deadline-evicting like Run's, but it has no
// order of its own: a freed slot goes to whichever waiter the runtime
// wakes, so it is neither FIFO nor interactive-before-batch, and a
// request's class acts only through the shedder. It is safe for
// concurrent use; the wrapped engine must be safe for concurrent
// queries (every qproc engine is).
type Frontend struct {
	// Tokenize turns free text into query terms (set before serving;
	// defaults to lower-cased whitespace splitting).
	Tokenize func(string) []string
	// Resolve maps a result document ID to a URL for /search responses
	// (optional).
	Resolve func(doc int) string

	eng qproc.Engine
	dq  qproc.DeadlineQuerier
	cfg Config

	start   time.Time
	slots   chan struct{}
	waiting atomic.Int64

	mu     sync.Mutex // guards bucket, shed, rng, lat
	bucket *TokenBucket
	shed   *Shedder
	rng    *rand.Rand
	lat    *metrics.Histogram

	offered  atomic.Int64
	served   atomic.Int64
	statuses [6]atomic.Int64
}

// NewFrontend wraps engine behind the serving pipeline described by
// cfg.
func NewFrontend(eng qproc.Engine, cfg Config) *Frontend {
	cfg = cfg.withDefaults()
	f := &Frontend{
		eng:    eng,
		cfg:    cfg,
		start:  time.Now(),
		slots:  make(chan struct{}, cfg.Workers),
		bucket: NewTokenBucket(cfg.AdmitRate, cfg.AdmitBurst),
		shed:   NewShedder(cfg.Shed),
		rng:    randx.New(cfg.Seed),
		lat:    metrics.NewHistogram(metrics.DefaultLatencyBounds()),
		Tokenize: func(s string) []string {
			return strings.Fields(strings.ToLower(s))
		},
	}
	if dq, ok := eng.(qproc.DeadlineQuerier); ok {
		f.dq = dq
	}
	return f
}

// Serve runs one request through admission, the queue, and a worker.
// On StatusOK the QueryResult carries the answer; on any other status
// the result is zero.
func (f *Frontend) Serve(ctx context.Context, req Request) (qproc.QueryResult, Status) {
	arrived := time.Now()
	f.offered.Add(1)

	f.mu.Lock()
	dropped := !f.shed.Admit(req.Class, f.rng.Float64())
	admitted := dropped || f.bucket.Allow(time.Since(f.start).Seconds())
	f.mu.Unlock()
	if dropped {
		return f.done(qproc.QueryResult{}, StatusShedOverload, arrived)
	}
	if !admitted {
		return f.done(qproc.QueryResult{}, StatusShedAdmission, arrived)
	}

	// The wait queue: goroutines blocked on the worker semaphore,
	// bounded by QueueCap.
	if f.waiting.Add(1) > int64(f.cfg.QueueCap) {
		f.waiting.Add(-1)
		return f.done(qproc.QueryResult{}, StatusShedQueueFull, arrived)
	}
	if f.cfg.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, arrived.Add(time.Duration(f.cfg.DeadlineMs*float64(time.Millisecond))))
		defer cancel()
	}
	select {
	case f.slots <- struct{}{}:
		f.waiting.Add(-1)
	case <-ctx.Done():
		f.waiting.Add(-1)
		return f.done(qproc.QueryResult{}, StatusTimeout, arrived)
	}
	defer func() { <-f.slots }()

	k := req.K
	if k <= 0 {
		k = f.cfg.DefaultK
	}
	var qr qproc.QueryResult
	remaining := 0.0
	if f.cfg.DeadlineMs > 0 {
		remaining = f.cfg.DeadlineMs - float64(time.Since(arrived))/float64(time.Millisecond)
		if remaining <= 0 {
			return f.done(qproc.QueryResult{}, StatusTimeout, arrived)
		}
	}
	if remaining > 0 && f.dq != nil {
		qr = f.dq.QueryTopKWithin(req.Terms, k, remaining)
	} else {
		//dwrlint:allow deadline engine is not a DeadlineQuerier or no deadline is configured; there is no budget to propagate
		qr = f.eng.QueryTopK(req.Terms, k)
	}
	switch {
	case qr.Err == nil:
		return f.done(qr, StatusOK, arrived)
	case errors.Is(qr.Err, qproc.ErrDeadlineExceeded):
		return f.done(qr, StatusTimeout, arrived)
	default:
		return f.done(qr, StatusFailed, arrived)
	}
}

// done accounts the outcome: every terminal latency feeds the shedding
// controller, so queue delay and engine slowness both push the level.
func (f *Frontend) done(qr qproc.QueryResult, st Status, arrived time.Time) (qproc.QueryResult, Status) {
	latMs := float64(time.Since(arrived)) / float64(time.Millisecond)
	f.statuses[st].Add(1)
	if st == StatusOK {
		f.served.Add(1)
	}
	f.mu.Lock()
	f.shed.Observe(latMs)
	f.lat.Add(latMs)
	f.mu.Unlock()
	return qr, st
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
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`

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

// Stats snapshots the front-end and engine counters.
func (f *Frontend) Stats() FrontStats {
	st := FrontStats{
		Offered:       f.offered.Load(),
		Served:        f.served.Load(),
		ShedOverload:  f.statuses[StatusShedOverload].Load(),
		ShedAdmission: f.statuses[StatusShedAdmission].Load(),
		ShedQueueFull: f.statuses[StatusShedQueueFull].Load(),
		Timeout:       f.statuses[StatusTimeout].Load(),
		Failed:        f.statuses[StatusFailed].Load(),
		Queued:        f.waiting.Load(),
	}
	f.mu.Lock()
	st.ShedLevel = f.shed.Level()
	st.P50Ms = f.lat.Quantile(0.50)
	st.P95Ms = f.lat.Quantile(0.95)
	st.P99Ms = f.lat.Quantile(0.99)
	f.mu.Unlock()
	es := f.eng.Stats()
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
	h := f.eng.Health()
	st.UnitsLive = h.Live()
	st.Units = h.Units
	return st
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
	req := Request{Terms: terms, Key: strings.Join(terms, " ")}
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
	h := f.eng.Health()
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

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status is already committed; an encode failure here means the
	// client went away, which the server loop handles.
	_ = json.NewEncoder(w).Encode(v)
}
