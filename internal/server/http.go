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
	"unicode/utf8"

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

	eng qproc.Engine

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
		eng:   eng,
		start: time.Now(),
		q:     newQueue(cfg),
		lat:   metrics.NewHistogram(metrics.DefaultLatencyBounds()),
		Tokenize: func(s string) []string {
			return strings.Fields(strings.ToLower(s))
		},
	}
}

// Serve runs one request through admission, the queue, and a worker.
// It returns the engine's QueryResult (no results unless StatusOK; zero
// short of a worker) with LatencyMs the wall time Serve took.
func (f *Frontend) Serve(ctx context.Context, req Request) (qr qproc.QueryResult, st Status) {
	f.mu.Lock()
	a := Arrival{At: time.Since(f.start).Seconds(), Req: req}
	t, st := f.q.arrive(a, a.At)
	if t != nil {
		t.wake = make(chan Status, 1) // holds the one verdict the ticket gets
	}
	f.mu.Unlock()
	defer func() { qr.LatencyMs = (time.Since(f.start).Seconds() - a.At) * 1000 }()
	if t != nil {
		st = f.wait(ctx, t)
	}
	if st != StatusOK {
		return qr, st
	}
	qr.Err = errAborted
	defer func() { st = f.complete(a, &qr) }()
	qr = f.eng.QueryTopK(req.Terms, req.topK())
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
	writeSearch(w, st, &qr, f.Resolve)
}

// searchBodies holds /search bodies while they are appended.
var searchBodies = sync.Pool{New: func() interface{} { return new([]byte) }}

// jsonContentType is every /search answer's Content-Type value, shared:
// assigning it allocates nothing where Header.Set allocates a slice. Its
// capacity is 1, so a later Header.Add copies instead of writing into it.
var jsonContentType = []string{"application/json"}

// chunkingBuffer is net/http's bufferBeforeChunkingSize: a response body
// of at most this many bytes, written whole by a handler that sets no
// Content-Length, is sent with a Content-Length net/http formats itself.
const chunkingBuffer = 2048

// writeSearch answers a /search request with st and qr, each result's
// URL from resolve when it is set. The body is appended without
// reflection and sent with its length — set here only past
// chunkingBuffer, below it by net/http — and it is byte for byte what
// encoding/json writes for
//
//	{"status", "results" (omitempty): [{"doc", "score", "url" (omitempty)}],
//	 "latency_ms" (a json.Number), "degraded" (omitempty), "from_cache" (omitempty)}
//
// — including the 500 a NaN or infinite score or latency answers.
// "latency_ms" is qr.LatencyMs — from Serve, the front-end's wall time
// from arrival to verdict — to four significant digits in 'e' form
// (6.420e-01): nine bytes for any latency from 1e-99 to 1e99, so the
// body's length never moves with the clock.
func writeSearch(w http.ResponseWriter, st Status, qr *qproc.QueryResult, resolve func(doc int) string) {
	bp := searchBodies.Get().(*[]byte)
	defer searchBodies.Put(bp)
	body, err := appendSearch((*bp)[:0], st, qr, resolve)
	*bp = body
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, encodingFailed(err))
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if len(body) > chunkingBuffer {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(st.HTTPCode())
	_, _ = w.Write(body)
}

// appendSearch appends writeSearch's body, newline included, to b.
func appendSearch(b []byte, st Status, qr *qproc.QueryResult, resolve func(doc int) string) ([]byte, error) {
	var err error
	b = append(b, `{"status":`...)
	b = appendJSONString(b, st.String())
	if len(qr.Results) > 0 {
		b = append(b, `,"results":[`...)
		for i, res := range qr.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"doc":`...)
			b = strconv.AppendInt(b, int64(res.Doc), 10)
			b = append(b, `,"score":`...)
			if b, err = appendJSONFloat(b, res.Score); err != nil {
				return b, err
			}
			if resolve != nil {
				if u := resolve(res.Doc); u != "" {
					b = append(b, `,"url":`...)
					b = appendJSONString(b, u)
				}
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"latency_ms":`...)
	if math.IsNaN(qr.LatencyMs) || math.IsInf(qr.LatencyMs, 0) {
		return appendJSONFloat(b, qr.LatencyMs) // encoding/json's error for it
	}
	b = strconv.AppendFloat(b, qr.LatencyMs, 'e', 3, 64)
	if qr.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if qr.FromCache {
		b = append(b, `,"from_cache":true`...)
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 with the
// exponent's leading zero dropped. A NaN or an infinity is
// encoding/json's error for it.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b, nil
}

// jsonEscaped marks the bytes appendJSONString does not copy verbatim:
// control bytes, every byte of a non-ASCII sequence, the quote, the
// backslash, and the HTML characters encoding/json escapes.
var jsonEscaped = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string: verbatim when every byte
// is printable ASCII with no escape, else as json.Marshal writes it, so
// HTML characters, control bytes, invalid UTF-8 and U+2028/U+2029
// escape as encoding/json escapes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if jsonEscaped[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
		_ = json.NewEncoder(buf).Encode(encodingFailed(err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A write error means the client went away, which the server loop
	// handles.
	_, _ = w.Write(buf.Bytes())
}

// encodingFailed is the JSON error a 500 for an unencodable body carries.
func encodingFailed(err error) map[string]string {
	return map[string]string{"error": "encoding the response: " + err.Error()}
}
