package server

import (
	"container/heap"

	"dwr/internal/metrics"
	"dwr/internal/qproc"
)

// Run drives engine through the admission → queue → workers pipeline in
// virtual time: a discrete-event loop over the source's arrivals and
// the worker pool's completions. Every admitted request performs a real
// engine evaluation (the answer is genuinely computed), and its service
// time on the worker is the engine's virtual latency — so the measured
// saturation point is the G/G/c bound of the engine's actual service
// distribution, not of an assumed one.
//
// The loop is single-goroutine and all randomness is seeded
// (Config.Seed plus whatever the source was built with), so a run is
// exactly reproducible.
func Run(eng qproc.Engine, cfg Config, src Source) Report {
	s := &simState{eng: eng, q: newQueue(cfg), src: src, firstArr: -1}
	for _, a := range src.Init() {
		s.push(event{t: a.At, kind: evArrival, a: a})
	}
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(event)
		s.lastT = max(s.lastT, ev.t)
		switch ev.kind {
		case evArrival:
			s.arrive(ev.a, ev.t)
		case evDone:
			s.complete(ev.a, ev.qr, ev.t)
		}
	}
	return s.report()
}

// Event kinds, in tie-break order at equal times: completions release
// workers before a simultaneous arrival is classified, matching a real
// front-end where the dispatch loop runs ahead of the accept loop.
const (
	evDone = iota
	evArrival
)

type event struct {
	t    float64
	kind int
	seq  int64 // insertion order, the final tie-break
	a    Arrival
	qr   *qproc.QueryResult // evDone: what a's worker computed
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type simState struct {
	eng qproc.Engine
	q   *queue
	src Source

	events eventHeap
	seq    int64

	firstArr float64
	lastT    float64
	busySec  float64
	started  int
	latency  [numClasses]metrics.Sample
}

func (s *simState) push(ev event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.events, ev)
}

// finish hands a terminal outcome back to the source, scheduling the
// follow-up arrival a closed-loop user issues after thinking.
func (s *simState) finish(a Arrival, at float64) {
	if next, ok := s.src.OnDone(a, at); ok {
		next.At = max(next.At, at)
		s.push(event{t: next.At, kind: evArrival, a: next})
	}
}

// arrive presents one arrival to the queue; a waiter stays there until
// a completion dispatches it.
func (s *simState) arrive(a Arrival, t float64) {
	if s.firstArr < 0 {
		s.firstArr = t
	}
	if tk, st := s.q.arrive(a, t); st != StatusOK {
		s.finish(a, t)
	} else if tk == nil {
		s.start(a, t)
	}
}

// start runs the engine evaluation and occupies the worker a took at t
// for its virtual duration. The engine gets what is left of the deadline
// in virtual ms, its own clock: positive, as arrive starts a request at
// once and dispatch evicts the expired; <= 0, no budget, without one.
func (s *simState) start(a Arrival, t float64) {
	qr := s.eng.QueryTopKWithin(a.Req.Terms, a.Req.topK(), s.q.cfg.DeadlineMs-(t-a.At)*1000)
	service := qr.LatencyMs / 1000
	s.started++
	s.busySec += service
	s.push(event{t: t + service, kind: evDone, a: a, qr: &qr})
}

// complete releases a's worker and starts the waiters dispatch hands
// over.
func (s *simState) complete(a Arrival, qr *qproc.QueryResult, t float64) {
	if st, latMs := s.q.complete(a, qr, t); st == StatusOK {
		s.latency[a.Req.Class].Add(latMs)
	}
	s.finish(a, t)
	for tk, st := s.q.dispatch(t); tk != nil; tk, st = s.q.dispatch(t) {
		if st == StatusOK {
			s.start(tk.a, t)
		} else {
			s.finish(tk.a, t)
		}
	}
}

func (s *simState) report() Report {
	r := s.q.rep
	r.Workers = s.q.cfg.Workers
	r.FinalShedLevel = s.q.shed.Level()
	if s.firstArr >= 0 && s.lastT > s.firstArr {
		r.MakespanSec = s.lastT - s.firstArr
		r.OfferedQPS = float64(r.Offered) / r.MakespanSec
		r.GoodputQPS = float64(r.Served) / r.MakespanSec
		r.Utilization = s.busySec / (float64(r.Workers) * r.MakespanSec)
	}
	if s.started > 0 {
		r.MeanServiceMs = s.busySec * 1000 / float64(s.started)
	}
	for c := range r.Class {
		cl := &r.Class[c]
		sm := &s.latency[c]
		if sm.N() == 0 {
			continue
		}
		cl.P50Ms = sm.Quantile(0.50)
		cl.P95Ms = sm.Quantile(0.95)
		cl.P99Ms = sm.Quantile(0.99)
		cl.MaxMs = sm.Max()
		cl.MeanMs = sm.Mean()
	}
	return r
}
