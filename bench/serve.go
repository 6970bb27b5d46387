package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/server"
	"dwr/internal/textproc"
)

// newFrontend wraps eng exactly as cmd/dwrserve does, sized for this
// box: 2×nproc workers, no deadline, no admission rate, no shedder.
func newFrontend(eng qproc.Engine, resolve func(int) string) *server.Frontend {
	f := server.NewFrontend(eng, server.Config{Workers: 2 * runtime.NumCPU()})
	f.Tokenize = textproc.Tokenize
	f.Resolve = resolve
	return f
}

// listener is an http.Server on a loopback port of the kernel's choice.
type listener struct {
	addr string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its accept loop to return.
func (l *listener) close() {
	_ = l.srv.Close() // the clients are gone; there is nothing to drain
	<-l.done
}

// client is one keep-alive HTTP/1.1 connection driven synchronously:
// write the request, read the whole response. It bypasses
// http.Transport, whose per-connection reader and writer goroutines
// would add two scheduler hops of noise to every round trip.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

// dial opens n connections to addr. A connection that fails to open is
// retried, and the failure reported, by its first do.
func dial(addr string, n int) []*client {
	cls := make([]*client, n)
	for i := range cls {
		cls[i] = &client{addr: addr}
		_ = cls[i].connect()
	}
	return cls
}

func hangUp(cls []*client) {
	for _, c := range cls {
		c.close()
	}
}

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close() // nothing in flight
		c.conn = nil
	}
}

func (c *client) connect() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err == nil {
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	return err
}

// do sends req and returns the status code and body; the body is valid
// until the next call. A transport error drops the connection so the
// next call redials.
func (c *client) do(req []byte) (int, []byte, error) {
	if err := c.connect(); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	_ = resp.Body.Close() // already read to EOF
	if err != nil {
		c.close()
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// reply is the part of the front-end's /search response the harness checks.
type reply struct {
	Status  string `json:"status"`
	Results []struct {
		Doc   int     `json:"doc"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// run is one workload being driven.
type run struct {
	w      workload
	p      profile
	sys    *system
	sc     *script
	oracle [][]rank.Result // per pool query, exhaustive top-k; nil for live_ingest

	ingestMu  sync.Mutex
	attempted atomic.Int64 // ops driven, warm-up and replays included
	failed    atomic.Int64
	firstErr  atomic.Value // string: the first failure, for the operator
}

func (r *run) fail(format string, a ...any) {
	r.failed.Add(1)
	r.firstErr.CompareAndSwap(nil, fmt.Sprintf(format, a...))
}

// buildOracle evaluates every pool query exhaustively per partition and
// merges, the reference the served rankings must equal bit for bit.
func (r *run) buildOracle() {
	eng := r.sys.static.Query
	scorer := rank.NewScorer(rank.FromGlobal(eng.GlobalStats()))
	r.oracle = make([][]rank.Result, len(r.sc.pool))
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists := make([][]rank.Result, eng.K())
			for i := int(next.Add(1)) - 1; i < len(r.sc.pool); i = int(next.Add(1)) - 1 {
				for p := range lists {
					lists[p], _ = rank.EvaluateOR(eng.PartIndex(p), scorer, r.sc.pool[i].terms, r.w.k)
				}
				r.oracle[i] = rank.MergeResults(r.w.k, lists...)
			}
		}()
	}
	wg.Wait()
}

// check compares one response with the oracle: same documents, same
// order, bitwise-equal scores. live_ingest has no static oracle; there a
// response must parse and say "ok".
func (r *run) check(q int, body []byte) {
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Status != "ok" {
		r.fail("query %d: bad response %.80q (%v)", q, body, err)
		return
	}
	if r.oracle == nil {
		return
	}
	want := r.oracle[q]
	if len(rep.Results) != len(want) {
		r.fail("query %d: %d results, oracle has %d", q, len(rep.Results), len(want))
		return
	}
	for i, h := range rep.Results {
		if h.Doc != want[i].Doc || math.Float64bits(h.Score) != math.Float64bits(want[i].Score) {
			r.fail("query %d rank %d: got doc %d score %v, oracle doc %d score %v",
				q, i, h.Doc, h.Score, want[i].Doc, want[i].Score)
			return
		}
	}
}

// pass describes one closed-loop drive over a slice of the op script.
type pass struct {
	clients    []*client // one goroutine each
	ops        []int32
	first      int  // script index of ops[0]: names spans and picks checked ops
	checkEvery int  // verify every n-th response against the oracle (0 = none)
	ingest     bool // run ingest ops (false skips them: query-only replay)
	tr         *tracer
}

// tally is what one client measured; passResult what all of them did,
// with the wall time of the pass around them.
type tally struct {
	lat       []int64 // ns per OK query, request write to body EOF
	queries   int
	ingested  int
	ingestNs  int64
	respBytes int64
}

type passResult struct {
	tally
	wall time.Duration
}

// drive runs the pass: the clients pull the next op from a shared
// cursor until the slice is exhausted. Nothing in here sleeps or polls.
func (r *run) drive(ps pass) passResult {
	var cursor atomic.Int64
	parts := make([]tally, len(ps.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range ps.clients {
		wg.Add(1)
		go func(cl *client, res *tally) {
			defer wg.Done()
			res.lat = make([]int64, 0, len(ps.ops)/len(ps.clients)+len(ps.ops)/8)
			for i := int(cursor.Add(1)) - 1; i < len(ps.ops); i = int(cursor.Add(1)) - 1 {
				op := ps.ops[i]
				if op < 0 {
					if ps.ingest {
						r.attempted.Add(1)
						res.ingestNs += r.ingestOp(int(-op-1), ps.first+i, ps.tr)
						res.ingested++
					}
					continue
				}
				r.attempted.Add(1)
				span := ps.tr.begin("http", ps.first+i)
				t0 := time.Now()
				code, body, err := cl.do(r.sc.pool[op].req)
				d := time.Since(t0)
				ps.tr.end(span)
				if err != nil || code != http.StatusOK {
					r.fail("op %d: status %d, %v", ps.first+i, code, err)
					continue
				}
				res.lat = append(res.lat, int64(d))
				res.queries++
				res.respBytes += int64(len(body))
				if ps.checkEvery > 0 && (ps.first+i)%ps.checkEvery == 0 {
					r.check(int(op), body)
				}
			}
		}(cl, &parts[c])
	}
	wg.Wait()
	out := passResult{wall: time.Since(start)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.queries += p.queries
		out.ingested += p.ingested
		out.ingestNs += p.ingestNs
		out.respBytes += p.respBytes
	}
	return out
}

// ingestOp parses and indexes the n-th page after the pre-ingested
// prefix and returns the time it took, waiting for the writer included.
func (r *run) ingestOp(n, opIndex int, tr *tracer) int64 {
	ls := r.sys.live
	t0 := time.Now()
	r.ingestMu.Lock()
	span := tr.begin("ingest", opIndex)
	ls.ingest(ls.pages[r.p.preIngest+n], tr)
	tr.end(span)
	r.ingestMu.Unlock()
	return int64(time.Since(t0))
}

// warmUp sends every distinct query once over both connections and
// checks every answer, so caches are full and lazy set-up is done
// before anything is timed.
func (r *run) warmUp(addr string) {
	ops := make([]int32, len(r.sc.pool))
	for i := range ops {
		ops[i] = int32(i)
	}
	cls := dial(addr, runtime.NumCPU())
	defer hangUp(cls)
	r.drive(pass{clients: cls, ops: ops, checkEvery: 1})
}

// settleLive seals the writers' tails and checks the store ends in the
// state the script implies: every accepted document searchable, and a
// replay of sampled queries stable and non-empty.
func (r *run) settleLive(addr string) {
	ls := r.sys.live
	for _, w := range ls.writers {
		if err := w.Cut(); err != nil {
			r.fail("sealing final segment: %v", err)
		}
	}
	if got := ls.eng.NumDocs(); got != ls.added {
		r.fail("live engine holds %d documents, writers accepted %d", got, ls.added)
	}
	cls := dial(addr, 1)
	defer hangUp(cls)
	cl := cls[0]
	n := min(200, len(r.sc.pool))
	for q := 0; q < n; q++ {
		var reps [2]reply
		for i := range reps {
			code, body, err := cl.do(r.sc.pool[q].req)
			if err != nil || code != http.StatusOK || json.Unmarshal(body, &reps[i]) != nil {
				r.fail("replay of query %d: status %d, %v", q, code, err)
			}
		}
		if len(reps[0].Results) == 0 || !reflect.DeepEqual(reps[0], reps[1]) {
			r.fail("replay of query %d: empty or unstable (%d vs %d results)",
				q, len(reps[0].Results), len(reps[1].Results))
		}
	}
}

// stubHandler answers every request with a canned 200: what is left of
// a round trip when the system under test does nothing.
func stubHandler() http.Handler {
	body := []byte(`{"status":"ok"}` + "\n")
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // a failed write shows up as a client error
	})
}
