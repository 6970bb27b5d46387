package faultsim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestOutcomeDeterministic(t *testing.T) {
	a := New(42).Default(Spec{FlakyP: 0.3, SlowP: 0.2, SlowMeanMs: 20})
	b := New(42).Default(Spec{FlakyP: 0.3, SlowP: 0.2, SlowMeanMs: 20})
	for tick := int64(0); tick < 50; tick++ {
		for u := 0; u < 4; u++ {
			for r := 0; r < 2; r++ {
				for att := 0; att < 3; att++ {
					oa := a.Outcome(tick, u, r, att)
					ob := b.Outcome(tick, u, r, att)
					if fmt.Sprint(oa) != fmt.Sprint(ob) {
						t.Fatalf("outcome diverged at tick=%d u=%d r=%d a=%d: %v vs %v",
							tick, u, r, att, oa, ob)
					}
				}
			}
		}
	}
}

func TestOutcomeOrderIndependent(t *testing.T) {
	// The same coordinates give the same outcome regardless of what was
	// asked in between — the property that makes parallel brokers
	// byte-identical to serial ones.
	in := New(7).Default(Spec{FlakyP: 0.5, SlowP: 0.3, SlowMeanMs: 5})
	first := in.Outcome(9, 2, 1, 0)
	for i := 0; i < 100; i++ {
		in.Outcome(int64(i), i%3, i%2, i%4)
	}
	again := in.Outcome(9, 2, 1, 0)
	if fmt.Sprint(first) != fmt.Sprint(again) {
		t.Fatalf("outcome changed with interleaved calls: %v vs %v", first, again)
	}
}

func TestOutcomeConcurrentSafe(t *testing.T) {
	in := New(3).Default(Spec{FlakyP: 0.2})
	var wg sync.WaitGroup
	results := make([][]string, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tick := int64(0); tick < 200; tick++ {
				results[w] = append(results[w], fmt.Sprint(in.Outcome(tick, 0, 0, 0)))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d saw a different schedule at %d", w, i)
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := New(1).Default(Spec{FlakyP: 0.5})
	b := New(2).Default(Spec{FlakyP: 0.5})
	same := 0
	const n = 200
	for tick := int64(0); tick < n; tick++ {
		oa := a.Outcome(tick, 0, 0, 0)
		ob := b.Outcome(tick, 0, 0, 0)
		if (oa.Err == nil) == (ob.Err == nil) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

func TestCrashAndFlakyAreErrInjected(t *testing.T) {
	in := New(1).Unit(0, Spec{Crash: true}).Unit(1, Spec{FlakyP: 1})
	crash := in.Outcome(0, 0, 0, 0)
	if !errors.Is(crash.Err, ErrInjected) || !crash.Silent {
		t.Fatalf("crash outcome %v not a silent ErrInjected", crash)
	}
	flaky := in.Outcome(0, 1, 0, 0)
	if !errors.Is(flaky.Err, ErrInjected) || flaky.Silent {
		t.Fatalf("flaky outcome %v not a loud ErrInjected", flaky)
	}
	healthy := in.Outcome(0, 2, 0, 0)
	if healthy.Err != nil || healthy.ExtraMs != 0 {
		t.Fatalf("unconfigured unit not healthy: %v", healthy)
	}
}

func TestReplicaOverrideNarrowerThanUnit(t *testing.T) {
	in := New(1).Window(Window{Unit: 3, Replica: 0, From: 0, To: 10})
	if out := in.Outcome(0, 3, 0, 0); !errors.Is(out.Err, ErrInjected) || !out.Silent {
		t.Fatalf("replica 0 of unit 3 answered inside its window: %v", out)
	}
	if out := in.Outcome(0, 3, 1, 0); out.Err != nil {
		t.Fatalf("a replica-0 window silenced replica 1: %v", out)
	}
}

func TestWindowCoversTicksAndUnits(t *testing.T) {
	in := New(1).Window(Window{Unit: 2, Replica: -1, From: 10, To: 20})
	if out := in.Outcome(9, 2, 0, 0); out.Err != nil {
		t.Fatal("window fired before From")
	}
	for tick := int64(10); tick < 20; tick++ {
		for r := 0; r < 3; r++ {
			out := in.Outcome(tick, 2, r, 0)
			if !errors.Is(out.Err, ErrInjected) || !out.Silent {
				t.Fatalf("tick %d replica %d not silenced by window: %v", tick, r, out)
			}
		}
		if out := in.Outcome(tick, 1, 0, 0); out.Err != nil {
			t.Fatal("window leaked onto another unit")
		}
	}
	if out := in.Outcome(20, 2, 0, 0); out.Err != nil {
		t.Fatal("window fired at To (exclusive bound)")
	}
}

func TestGlobalWindow(t *testing.T) {
	in := New(1).Window(Window{Unit: -1, Replica: -1, From: 5, To: 6})
	for u := 0; u < 4; u++ {
		if out := in.Outcome(5, u, 0, 0); out.Err == nil {
			t.Fatalf("global window missed unit %d", u)
		}
	}
}

func TestSlowAddsLatencyOnly(t *testing.T) {
	in := New(11).Default(Spec{SlowP: 1, SlowMeanMs: 30})
	seen := false
	for tick := int64(0); tick < 20; tick++ {
		out := in.Outcome(tick, 0, 0, 0)
		if out.Err != nil {
			t.Fatalf("slow spec produced an error: %v", out)
		}
		if out.ExtraMs > 0 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("SlowP=1 never injected latency")
	}
}

func TestDownUnits(t *testing.T) {
	in := New(1).
		Unit(0, Spec{Crash: true}).
		Window(Window{Unit: 2, Replica: 0, From: 0, To: 1000}). // replica 1 still alive
		Window(Window{Unit: 3, Replica: -1, From: 0, To: 100})
	down := in.DownUnits(50, 5, 2)
	if fmt.Sprint(down) != "[0 3]" {
		t.Fatalf("DownUnits = %v, want [0 3]", down)
	}
	// With a single replica, the replica-0 window takes unit 2 down too.
	down = in.DownUnits(50, 5, 1)
	if fmt.Sprint(down) != "[0 2 3]" {
		t.Fatalf("DownUnits(replicas=1) = %v, want [0 2 3]", down)
	}
	// Outside the window, unit 3 recovers.
	down = in.DownUnits(200, 5, 2)
	if fmt.Sprint(down) != "[0]" {
		t.Fatalf("DownUnits past window = %v, want [0]", down)
	}
}

func TestClearUnitRestoresDefault(t *testing.T) {
	in := New(1).Unit(0, Spec{Crash: true})
	if out := in.Outcome(0, 0, 0, 0); out.Err == nil {
		t.Fatal("crash override inactive")
	}
	in.ClearUnit(0)
	for r := 0; r < 2; r++ {
		if out := in.Outcome(0, 0, r, 0); out.Err != nil {
			t.Fatalf("ClearUnit left replica %d broken: %v", r, out)
		}
	}
}
