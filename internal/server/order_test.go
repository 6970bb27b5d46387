package server_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dwr/internal/qproc"
	"dwr/internal/server"
)

// An orderCase scripts the one queue both drivers step: request "w"
// takes the only worker, the parked requests arrive one after another
// while it is held, then the worker is released and the queue drains.
type orderCase struct {
	name        string
	cfg         server.Config // Workers is 1
	parked      []parkedReq
	wantOrder   []string // the order requests reach the engine in
	wantFull    int      // shed because the queue was full
	wantTimeout int      // evicted past the deadline, without reaching the engine
}

type parkedReq struct {
	label string
	class server.Class
}

const (
	ia = server.Interactive
	ba = server.Batch
)

var orderCases = []orderCase{{
	name:      "interactive before batch, FIFO within a class",
	cfg:       server.Config{Workers: 1, QueueCap: 8},
	parked:    []parkedReq{{"b1", ba}, {"b2", ba}, {"i1", ia}, {"i2", ia}, {"b3", ba}},
	wantOrder: []string{"w", "i1", "i2", "b1", "b2", "b3"},
}, {
	name:      "queue full at exactly QueueCap waiters",
	cfg:       server.Config{Workers: 1, QueueCap: 2},
	parked:    []parkedReq{{"b1", ba}, {"i1", ia}, {"i2", ia}, {"b2", ba}},
	wantOrder: []string{"w", "i1", "b1"},
	wantFull:  2,
}, {
	name:      "no queue: a busy pool sheds, a free worker serves",
	cfg:       server.Config{Workers: 1, QueueCap: -1},
	parked:    []parkedReq{{"i1", ia}},
	wantOrder: []string{"w"},
	wantFull:  1,
}, {
	name:        "deadline eviction never reaches the engine",
	cfg:         server.Config{Workers: 1, QueueCap: 8, DeadlineMs: 20},
	parked:      []parkedReq{{"i1", ia}, {"b1", ba}},
	wantOrder:   []string{"w"},
	wantTimeout: 2,
}}

// TestQueueOrder runs every scripted scenario through Run and through
// Frontend: one discipline, asserted once, under both clocks.
func TestQueueOrder(t *testing.T) {
	drivers := []struct {
		name string
		run  func(*testing.T, orderCase) (order []string, full, timeout int)
	}{{"Run", orderUnderRun}, {"Frontend", orderUnderFrontend}}
	for _, d := range drivers {
		for _, tc := range orderCases {
			t.Run(d.name+"/"+tc.name, func(t *testing.T) {
				order, full, timeout := d.run(t, tc)
				if !reflect.DeepEqual(order, tc.wantOrder) {
					t.Errorf("engine saw %v; want %v", order, tc.wantOrder)
				}
				if full != tc.wantFull || timeout != tc.wantTimeout {
					t.Errorf("queue-full %d, timeout %d; want %d, %d", full, timeout, tc.wantFull, tc.wantTimeout)
				}
			})
		}
	}
}

// scriptEngine holds a worker for 50 virtual ms per query and records
// the order the queries reached it in.
type scriptEngine struct{ order []string }

func (e *scriptEngine) QueryTopK(terms []string, k int) qproc.QueryResult {
	e.order = append(e.order, terms[0])
	return qproc.QueryResult{LatencyMs: 50}
}
func (e *scriptEngine) K() int                   { return 1 }
func (e *scriptEngine) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (e *scriptEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

// orderUnderRun: "w" arrives at 0 and holds the worker until 50 ms; the
// parked requests arrive a millisecond apart from 1 ms.
func orderUnderRun(t *testing.T, tc orderCase) ([]string, int, int) {
	src := sliceSource{{At: 0, Req: server.Request{Terms: []string{"w"}}}}
	for i, p := range tc.parked {
		src = append(src, server.Arrival{At: float64(i+1) / 1000, User: i + 1,
			Req: server.Request{Terms: []string{p.label}, Class: p.class}})
	}
	eng := &scriptEngine{}
	rep := server.Run(eng, tc.cfg, src)
	if rep.Offered != len(src) || rep.Served != len(eng.order) {
		t.Errorf("offered %d served %d for %d arrivals, %d engine calls",
			rep.Offered, rep.Served, len(src), len(eng.order))
	}
	return eng.order, rep.ShedQueueFull, rep.EvictedDeadline + rep.EngineDeadline
}

// orderUnderFrontend: "w" blocks in the engine; each parked request is
// accounted for (queued, shed or timed out) before the next arrives.
func orderUnderFrontend(t *testing.T, tc orderCase) ([]string, int, int) {
	eng := &blockingEngine{release: make(chan struct{})}
	f := server.NewFrontend(eng, tc.cfg)
	var wg sync.WaitGroup
	serve := func(label string, class server.Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Serve(context.Background(), server.Request{Terms: []string{label}, Class: class})
		}()
	}
	serve("w", server.Interactive)
	waitFor(t, "worker occupancy", func() bool { return eng.calls.Load() == 1 })
	for i, p := range tc.parked {
		serve(p.label, p.class)
		waitFor(t, p.label+" to be accounted for", func() bool {
			s := f.Stats()
			return s.Queued+s.ShedQueueFull+s.Timeout == int64(i+1)
		})
	}
	waitFor(t, "deadline evictions", func() bool { return f.Stats().Timeout == int64(tc.wantTimeout) })
	close(eng.release)
	wg.Wait()

	s := f.Stats()
	if s.Offered != int64(len(tc.parked)+1) || s.Served != int64(len(eng.order)) || s.Queued != 0 || f.Busy() != 0 {
		t.Errorf("after draining: %+v, busy %d, %d engine calls", s, f.Busy(), len(eng.order))
	}
	return eng.order, int(s.ShedQueueFull), int(s.Timeout)
}

// TestFreeWorkerNeedsNoQueue: QueueCap < 0 means no waiting, not no
// serving — a request that finds a free worker is never counted against
// the queue bound, under either driver.
func TestFreeWorkerNeedsNoQueue(t *testing.T) {
	cfg := server.Config{Workers: 4, QueueCap: -1}
	req := server.Request{Terms: []string{"a"}}

	if _, st := server.NewFrontend(sleepEngine{}, cfg).Serve(context.Background(), req); st != server.StatusOK {
		t.Errorf("Frontend: %v with every worker idle; want ok", st)
	}
	if rep := server.Run(sleepEngine{}, cfg, sliceSource{{Req: req}}); rep.Served != 1 {
		t.Errorf("Run: served %d of 1 with every worker idle: %+v", rep.Served, rep)
	}
}
