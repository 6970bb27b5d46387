package server_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dwr/internal/server"
)

// FuzzRun drives the one G/G/c simulator with arbitrary arrivals,
// service times and configuration, and checks the bookkeeping every
// Report must satisfy. Each arrival byte is a gap (b>>1 ms) and a class
// (b&1: batch); each service byte is one call's latency in ms, cycled.
// Negative workers and queue caps exercise the documented defaults.
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
		if aware && deadlineMs > 0 {
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
