package loadgen

import (
	"math"
	"reflect"
	"testing"

	"dwr/internal/querylog"
	"dwr/internal/server"
	"dwr/internal/simweb"
)

func testLog(t *testing.T) *querylog.Log {
	t.Helper()
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 40
	wcfg.MaxPages = 30
	wcfg.VocabSize = 1000
	web := simweb.New(wcfg)
	lcfg := querylog.DefaultConfig()
	lcfg.Distinct = 200
	lcfg.Total = 1500
	return querylog.Generate(web, lcfg)
}

func TestOpenPoisson(t *testing.T) {
	lg := testLog(t)
	const rate, n = 500.0, 4000
	src := Open(lg, OpenConfig{Seed: 1, Rate: rate, N: n, BatchFrac: 0.3})
	arr := src.Init()
	if len(arr) != n {
		t.Fatalf("generated %d of %d arrivals", len(arr), n)
	}
	batch := 0
	prev := 0.0
	for i, a := range arr {
		if a.At <= prev {
			t.Fatalf("arrival %d at %v not after %v", i, a.At, prev)
		}
		prev = a.At
		if a.Req.Class == server.Batch {
			batch++
		}
		// Requests replay the log's query stream in order.
		if want := lg.Queries[i%len(lg.Queries)].Terms; !reflect.DeepEqual(a.Req.Terms, want) {
			t.Fatalf("arrival %d carries %q; want log query %q", i, a.Req.Terms, want)
		}
	}
	// Mean arrival rate within 10% of λ.
	if got := float64(n) / arr[n-1].At; math.Abs(got/rate-1) > 0.1 {
		t.Fatalf("realized rate %.1f qps; want ≈%.0f", got, rate)
	}
	if frac := float64(batch) / n; frac < 0.25 || frac > 0.35 {
		t.Fatalf("batch fraction %.3f; want ≈0.3", frac)
	}
	// Open loop: completions never spawn arrivals.
	if _, ok := src.OnDone(arr[0], 1); ok {
		t.Fatal("open-loop source issued a follow-up")
	}
}

func TestOpenDeterminism(t *testing.T) {
	lg := testLog(t)
	cfg := OpenConfig{Seed: 3, Rate: 200, N: 500, BatchFrac: 0.5}
	a := Open(lg, cfg).Init()
	b := Open(lg, cfg).Init()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different open-loop schedules")
	}
	c := Open(lg, OpenConfig{Seed: 4, Rate: 200, N: 500, BatchFrac: 0.5}).Init()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, identical schedules")
	}
}

func TestClosedLoopChaining(t *testing.T) {
	lg := testLog(t)
	const users, n = 10, 100
	src := Closed(lg, ClosedConfig{Seed: 5, Users: users, N: n, ThinkMeanSec: 0.05})
	init := src.Init()
	if len(init) != users {
		t.Fatalf("seeded %d arrivals for %d users", len(init), users)
	}
	issued := len(init)
	// Drain: complete arrivals in order, collecting follow-ups.
	pending := init
	for len(pending) > 0 {
		a := pending[0]
		pending = pending[1:]
		next, ok := src.OnDone(a, a.At+0.001)
		if !ok {
			continue
		}
		issued++
		if next.User != a.User {
			t.Fatalf("follow-up for user %d issued as user %d", a.User, next.User)
		}
		if next.At < a.At+0.001 {
			t.Fatalf("follow-up at %v before its trigger %v", next.At, a.At+0.001)
		}
		pending = append(pending, next)
	}
	if issued != n {
		t.Fatalf("closed loop issued %d of %d", issued, n)
	}
}

func TestClosedUsersCappedByN(t *testing.T) {
	lg := testLog(t)
	src := Closed(lg, ClosedConfig{Seed: 6, Users: 50, N: 5})
	if got := len(src.Init()); got != 5 {
		t.Fatalf("seeded %d arrivals with N=5", got)
	}
}
