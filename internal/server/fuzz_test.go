package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/server"
)

// FuzzRun drives the one G/G/c simulator with arbitrary arrivals,
// service times and configuration, and checks the bookkeeping every
// Report must satisfy. Each arrival byte is a gap (b>>1 ms) and a class
// (b&1: batch); each service byte is one call's latency in ms, cycled.
// Negative workers and queue caps exercise the documented defaults.
// Under a deadline no served request outlasts it, whether or not the
// engine honours the budget it is handed (aware).
func FuzzRun(f *testing.F) {
	f.Add([]byte{2, 3, 4, 5, 0, 1, 200}, []byte{10, 250, 3}, int8(1), int16(2), uint16(0), uint16(0), uint16(0), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1}, []byte{40}, int8(2), int16(-1), uint16(30), uint16(0), uint16(0), false)
	f.Add([]byte{20, 21, 2, 3, 9, 8}, []byte{90, 5}, int8(3), int16(0), uint16(60), uint16(100), uint16(20), true)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{}, int8(-4), int16(4), uint16(0), uint16(0), uint16(1), true)
	f.Fuzz(func(t *testing.T, gaps, services []byte, workers int8, queueCap int16,
		deadlineMs, admitRate, shedTargetMs uint16, aware bool) {
		if len(gaps) > 512 {
			gaps = gaps[:512]
		}
		cfg := server.Config{
			Workers:    int(workers),
			QueueCap:   int(queueCap),
			DeadlineMs: float64(deadlineMs),
			AdmitRate:  float64(admitRate),
			Shed:       server.ShedConfig{TargetP99Ms: float64(shedTargetMs), Window: 8},
			Seed:       int64(len(gaps)),
		}
		run := func() server.Report {
			arr := make(sliceSource, len(gaps))
			at := 0.0
			for i, b := range gaps {
				at += float64(b>>1) / 1000
				arr[i] = server.Arrival{At: at, User: i, Req: server.Request{
					Terms: []string{"a"}, Class: server.Class(b & 1)}}
			}
			calls := 0
			eng := newStubEngine(0, func(*rand.Rand) float64 {
				if len(services) == 0 {
					return 1
				}
				calls++
				return float64(services[(calls-1)%len(services)])
			})
			if aware {
				return server.Run(eng, cfg, arr)
			}
			return server.Run(noDeadlineEngine{eng}, cfg, arr)
		}
		rep := run()

		if rep.Offered != len(gaps) {
			t.Fatalf("offered %d of %d arrivals", rep.Offered, len(gaps))
		}
		shed := rep.ShedOverload + rep.ShedAdmission + rep.ShedQueueFull
		if rep.Served+shed+rep.EvictedDeadline+rep.EngineDeadline+rep.EngineFailed != rep.Offered {
			t.Fatalf("outcome taxonomy does not partition offered: %+v", rep)
		}
		if rep.Admitted != rep.Offered-shed {
			t.Fatalf("admitted %d != offered %d - shed %d", rep.Admitted, rep.Offered, shed)
		}
		var offered, served, lost int
		for _, cl := range rep.Class {
			offered += cl.Offered
			served += cl.Served
			lost += cl.Shed
			if !(cl.P50Ms <= cl.P95Ms && cl.P95Ms <= cl.P99Ms && cl.P99Ms <= cl.MaxMs) {
				t.Fatalf("quantiles out of order: %+v", cl)
			}
		}
		if offered != rep.Offered || served != rep.Served || lost != rep.Offered-rep.Served {
			t.Fatalf("classes sum to offered %d served %d lost %d: %+v", offered, served, lost, rep)
		}

		w := int(workers)
		if w <= 0 {
			w = 150
		}
		limit := int(queueCap)
		switch {
		case limit == 0:
			limit = 2 * w
		case limit < 0:
			limit = 0
		}
		if rep.Workers != w || rep.MaxQueueLen > limit {
			t.Fatalf("workers %d (want %d), max queue %d past its cap %d", rep.Workers, w, rep.MaxQueueLen, limit)
		}
		// Busy time over pool time: float rounding of the makespan may
		// put a saturated pool a hair above 1.
		if rep.Utilization < 0 || rep.Utilization > 1+1e-9 {
			t.Fatalf("utilization %v outside [0, 1]", rep.Utilization)
		}
		if deadlineMs > 0 {
			for _, cl := range rep.Class {
				if cl.MaxMs > cfg.DeadlineMs+1e-6 {
					t.Fatalf("served request took %v ms past a %v ms deadline", cl.MaxMs, cfg.DeadlineMs)
				}
			}
		}
		if again := run(); !reflect.DeepEqual(rep, again) {
			t.Fatalf("replay differs:\n%+v\nvs\n%+v", rep, again)
		}
	})
}

// The /search body as it was before the hand-written appender: the
// differential oracle, encoded by encoding/json through WriteJSON.
type searchHit struct {
	Doc   int     `json:"doc"`
	Score float64 `json:"score"`
	URL   string  `json:"url,omitempty"`
}

type searchResponse struct {
	Status    string      `json:"status"`
	Results   []searchHit `json:"results,omitempty"`
	LatencyMs any         `json:"latency_ms"` // a json.Number in 'e' form, the float when non-finite
	Degraded  bool        `json:"degraded,omitempty"`
	FromCache bool        `json:"from_cache,omitempty"`
}

// FuzzSearchBody: WriteSearch answers byte for byte what encoding/json
// answers for the same response, latency_ms written as a json.Number
// to four significant digits — status code, content type and body —
// for any document ID, any score and latency bit pattern, any status
// and flags, and URLs that need escaping; and a NaN or an infinity
// answers the JSON 500. A body past net/http's 2 KiB buffer carries its
// Content-Length; a shorter one none, as net/http then sets it. Result
// i is document doc+i with score bits
// scoreBits rotated by i; odd documents resolve to no URL, and flag bit
// 2 unsets the resolver.
func FuzzSearchBody(f *testing.F) {
	f.Add(int64(7), math.Float64bits(1.5), math.Float64bits(0.25), uint8(0), uint8(0), uint8(3), "http://h0001.example/p/3")
	f.Add(int64(-1), math.Float64bits(1e-7), math.Float64bits(1e21), uint8(4), uint8(3), uint8(2), `<a href="x">&amp;</a>`)
	f.Add(int64(math.MaxInt64-1), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(5e-324), uint8(9), uint8(1), uint8(1), "\x00\x1f\x7f\\\"\t\n")
	f.Add(int64(2), math.Float64bits(math.NaN()), math.Float64bits(1), uint8(0), uint8(0), uint8(1), "\xff\xfe  é")
	f.Add(int64(0), math.Float64bits(2), math.Float64bits(math.Inf(-1)), uint8(1), uint8(2), uint8(0), "")
	f.Add(int64(3), math.Float64bits(123456789.125), math.Float64bits(math.Inf(1)), uint8(5), uint8(4), uint8(4), "u")
	f.Fuzz(func(t *testing.T, doc int64, scoreBits, latencyBits uint64, status, flags, n uint8, url string) {
		st := server.Status(status % 8)
		qr := qproc.QueryResult{LatencyMs: math.Float64frombits(latencyBits),
			Degraded: flags&1 != 0, FromCache: flags&2 != 0}
		resolve := func(d int) string {
			if d&1 != 0 {
				return ""
			}
			return url
		}
		if flags&4 != 0 {
			resolve = nil
		}
		want := searchResponse{Status: st.String(), LatencyMs: qr.LatencyMs,
			Degraded: qr.Degraded, FromCache: qr.FromCache}
		nonFinite := math.IsNaN(qr.LatencyMs) || math.IsInf(qr.LatencyMs, 0)
		if !nonFinite {
			want.LatencyMs = json.Number(strconv.FormatFloat(qr.LatencyMs, 'e', 3, 64))
		}
		for i := 0; i < int(n%5); i++ {
			res := rank.Result{Doc: int(doc) + i, Score: math.Float64frombits(bits.RotateLeft64(scoreBits, i))}
			qr.Results = append(qr.Results, res)
			hit := searchHit{Doc: res.Doc, Score: res.Score}
			if resolve != nil {
				hit.URL = resolve(res.Doc)
			}
			want.Results = append(want.Results, hit)
			nonFinite = nonFinite || math.IsNaN(res.Score) || math.IsInf(res.Score, 0)
		}

		old, got := httptest.NewRecorder(), httptest.NewRecorder()
		server.WriteJSON(old, st.HTTPCode(), want)
		server.WriteSearch(got, st, &qr, resolve)
		if got.Code != old.Code || !bytes.Equal(got.Body.Bytes(), old.Body.Bytes()) ||
			got.Header().Get("Content-Type") != old.Header().Get("Content-Type") {
			t.Fatalf("appended HTTP %d %q %q\nencoding/json HTTP %d %q %q",
				got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
				old.Code, old.Header().Get("Content-Type"), old.Body.Bytes())
		}
		var body map[string]any
		if err := json.Unmarshal(got.Body.Bytes(), &body); err != nil {
			t.Fatalf("body %q is not JSON: %v", got.Body.Bytes(), err)
		}
		if nonFinite {
			if msg, _ := body["error"].(string); got.Code != http.StatusInternalServerError || msg == "" {
				t.Fatalf("a non-finite value answered HTTP %d %q; want 500 with a JSON error", got.Code, got.Body.Bytes())
			}
		} else if cl, want := got.Header().Get("Content-Length"), strconv.Itoa(got.Body.Len()); got.Body.Len() <= 2048 {
			if cl != "" { // net/http sets it (TestSearchSendsItsLength)
				t.Fatalf("Content-Length %q set for a %d-byte body that net/http buffers", cl, got.Body.Len())
			}
		} else if cl != want {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, got.Body.Len())
		}
	})
}
