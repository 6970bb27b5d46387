package server

import (
	"errors"
	"math/rand"
	"slices"

	"dwr/internal/qproc"
	"dwr/internal/randx"
)

// queue is the serving discipline, once: the admit → wait → dispatch
// state machine both drivers step. An arrival meets the shedder's coin,
// then the token bucket, then takes a free worker, else waits in its
// class's FIFO while the wait queue is below Config.QueueCap. A
// completion frees its worker and feeds the shedder; dispatch hands the
// worker to the oldest interactive waiter, else the oldest batch one,
// evicting waiters whose deadline passed in the queue.
//
// Like TokenBucket and Shedder it owns no clock and no lock: the caller
// passes now in seconds and serializes the calls — Run from its event
// loop in virtual time, Frontend under its mutex on the wall clock.
type queue struct {
	cfg Config

	bucket *TokenBucket
	shed   *Shedder
	rng    *rand.Rand

	fifo [numClasses][]*ticket // waiters per class, oldest first
	busy int                   // workers occupied
	rep  Report                // the outcome tally; drivers add what needs their clock
}

// ticket is one request waiting in the queue.
type ticket struct {
	a    Arrival
	wake chan Status // the driver's: carries the verdict to Frontend's parked goroutine, nil under Run
}

func newQueue(cfg Config) *queue {
	cfg = cfg.withDefaults()
	return &queue{
		cfg:    cfg,
		bucket: NewTokenBucket(cfg.AdmitRate, cfg.AdmitBurst),
		shed:   NewShedder(cfg.Shed),
		rng:    randx.New(cfg.Seed),
	}
}

// queued is the wait queue's length, all classes together.
func (q *queue) queued() int { return len(q.fifo[Interactive]) + len(q.fifo[Batch]) }

// lose books one request of class c that will not be served, and why.
func (q *queue) lose(c Class, reason *int, st Status) Status {
	*reason++
	q.rep.Class[c].Shed++
	return st
}

// arrive decides one arrival at time now. A shed status is terminal and
// already booked. StatusOK with no ticket means a holds a worker: the
// caller evaluates a, then calls complete. A ticket means a waits:
// dispatch hands the ticket back when its turn or its deadline comes.
func (q *queue) arrive(a Arrival, now float64) (*ticket, Status) {
	c := a.Req.Class
	q.rep.Offered++
	q.rep.Class[c].Offered++
	switch {
	case !q.shed.Admit(c, q.rng.Float64()):
		return nil, q.lose(c, &q.rep.ShedOverload, StatusShedOverload)
	case !q.bucket.Allow(now):
		return nil, q.lose(c, &q.rep.ShedAdmission, StatusShedAdmission)
	case q.busy < q.cfg.Workers:
		q.rep.Admitted++
		q.busy++
		return nil, StatusOK
	case q.queued() >= q.cfg.QueueCap:
		return nil, q.lose(c, &q.rep.ShedQueueFull, StatusShedQueueFull)
	}
	q.rep.Admitted++
	t := &ticket{a: a}
	q.fifo[c] = append(q.fifo[c], t)
	q.rep.MaxQueueLen = max(q.rep.MaxQueueLen, q.queued())
	return t, StatusOK
}

// complete frees the worker a held and books the engine's answer. Its
// arrival-to-completion latency (returned, ms) feeds the shedder: only
// requests that held a worker do, so sheds cannot dilute the quantile
// the controller defends. An error-free answer past DeadlineMs on the
// caller's clock is a timeout and loses its results; an engine error
// keeps the engine's verdict. The caller dispatches next.
func (q *queue) complete(a Arrival, qr *qproc.QueryResult, now float64) (Status, float64) {
	q.busy--
	latMs := (now - a.At) * 1000
	q.shed.Observe(latMs)
	c := a.Req.Class
	switch {
	case qr.Err == nil && q.cfg.DeadlineMs > 0 && latMs > q.cfg.DeadlineMs:
		qr.Results = nil
		return q.lose(c, &q.rep.EngineDeadline, StatusTimeout), latMs
	case qr.Err == nil:
		q.rep.Served++
		q.rep.Class[c].Served++
		if qr.Degraded {
			q.rep.Degraded++
		}
		return StatusOK, latMs
	case errors.Is(qr.Err, qproc.ErrDeadlineExceeded):
		return q.lose(c, &q.rep.EngineDeadline, StatusTimeout), latMs
	default:
		return q.lose(c, &q.rep.EngineFailed, StatusFailed), latMs
	}
}

// dispatch pops the next waiter while a worker is free. StatusOK means
// the ticket holds the worker from now on; StatusTimeout means its
// deadline passed in the queue — it is booked, holds nothing, and the
// caller asks again. A nil ticket means nothing can start.
func (q *queue) dispatch(now float64) (*ticket, Status) {
	for c := Class(0); c < numClasses && q.busy < q.cfg.Workers; c++ {
		w := q.fifo[c]
		if len(w) == 0 {
			continue
		}
		t := w[0]
		w[0] = nil // release for GC
		q.fifo[c] = w[1:]
		if q.cfg.DeadlineMs > 0 && (now-t.a.At)*1000 >= q.cfg.DeadlineMs {
			return t, q.lose(c, &q.rep.EvictedDeadline, StatusTimeout)
		}
		q.busy++
		return t, StatusOK
	}
	return nil, StatusOK
}

// abandon withdraws a ticket whose owner stopped waiting, booking it as
// evicted. It reports false when dispatch reached the ticket first: the
// verdict stands, and on StatusOK the owner holds a worker.
func (q *queue) abandon(t *ticket) bool {
	c := t.a.Req.Class
	i := slices.Index(q.fifo[c], t)
	if i < 0 {
		return false
	}
	q.fifo[c] = slices.Delete(q.fifo[c], i, i+1)
	q.lose(c, &q.rep.EvictedDeadline, StatusTimeout)
	return true
}
