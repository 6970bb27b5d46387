package main

// The 2-core box this benchmark is sized on changes speed by up to
// ±20 % on every time scale from a second to minutes: a loop that
// touches nothing but registers and L1 shows it in CPU time as much as
// in wall time, so no amount of care inside the process removes it, and
// runs taken minutes apart can sit on different plateaus. The harness
// therefore carries a clock of its own — a fixed kernel timed on every
// core, every 25 ms of the measured pass — and reports every duration in
// units of that clock: "seconds at reference speed", the speed at which
// one probe takes refNominalNs.

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// refBuf is the reference kernel's input: 32 KiB of varint-coded gaps,
// the size of a few hundred posting blocks.
var refBuf = func() []byte {
	b := make([]byte, 0, 1<<15)
	x := uint64(12345)
	for len(b) < cap(b)-2 {
		x = x*6364136223846793005 + 1442695040888963407
		v := (x >> 40) % 300
		if v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return b
}()

// refScan is the reference kernel: decode varint gaps and fold a
// BM25-shaped score into a running sum and maximum — the instruction mix
// of posting traversal, owned by the harness so that no change to the
// engine can move it. It allocates nothing and makes no system call.
func refScan(b []byte) float64 {
	var doc, v uint64
	var sh uint
	var acc, top float64
	for _, c := range b {
		v |= uint64(c&0x7f) << sh
		if c >= 0x80 {
			sh += 7
			continue
		}
		doc += v
		tf := float64(v & 15)
		s := 2.2 * tf / (tf + 1.2*(0.25+0.75*float64(doc&255)/128))
		if s > top {
			top = s
		}
		acc += s
		v, sh = 0, 0
	}
	return acc + top
}

// refScans is how many scans one probe makes per core (about 1 ms).
const refScans = 6

// probeSpeed times the reference kernel on every core at once and
// returns the mean wall time of one core's share, in ns.
func probeSpeed() float64 {
	n := runtime.NumCPU()
	times := make([]time.Duration, n)
	sums := make([]float64, n) // kept so the compiler cannot drop the scans
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t0 := time.Now()
			for i := 0; i < refScans; i++ {
				sums[c] += refScan(refBuf)
			}
			times[c] = time.Since(t0)
		}(c)
	}
	wg.Wait()
	var sum time.Duration
	for c, t := range times {
		sum += t
		sink += int(sums[c])
	}
	return float64(sum) / float64(n)
}

// refNominalNs is what one probe takes on the sizing box when nothing
// disturbs it; dividing by it turns probe times into a speed factor
// (above 1: the machine is slower than reference).
const refNominalNs = 900e3

// slowdown is the machine's speed factor around position i of a
// series of probes: the median of the probes within four places of i,
// which a single disturbed probe cannot move.
func slowdown(probes []float64, i int) float64 {
	return median(probes[max(0, i-4):min(len(probes), i+5)]) / refNominalNs
}

// median returns the upper median of v and leaves v as it was.
func median(v []float64) float64 {
	w := append([]float64(nil), v...)
	sort.Float64s(w)
	return w[len(w)/2]
}

// probeMany takes n probes back to back.
func probeMany(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = probeSpeed()
	}
	return out
}

// slicesPerSec sets how often the measured pass stops for a probe.
const slicesPerSec = 40

// timedPass drives the whole script from nproc clients, in slices of
// about 25 ms with a probe between them, and returns the end-to-end
// timing metrics at reference speed: each slice's wall time and
// latencies are divided by the slowdown measured around it. The raw
// figures are printed beside them.
func (r *run) timedPass(addr string) map[string]float64 {
	n := max(1, r.p.opsPerSec[r.w.name]/slicesPerSec)
	var parts []passResult
	var probes []float64
	cls := dial(addr, runtime.NumCPU())
	defer hangUp(cls)
	runtime.GC() // so the collector's cycles fall at the same ops in every run
	for lo := 0; lo < len(r.sc.ops); lo += n {
		probes = append(probes, probeSpeed())
		parts = append(parts, r.drive(pass{clients: cls, ops: r.sc.ops[lo:min(lo+n, len(r.sc.ops))],
			first: lo, checkEvery: 64, ingest: true}))
	}
	probes = append(probes, probeSpeed())

	var raw, ref []int64
	var rawWall, refWall, slow float64
	queries := 0
	for i, s := range parts {
		g := slowdown(probes, i) // probes i and i+1 bracket slice i
		slow += g / float64(len(parts))
		rawWall += s.wall.Seconds()
		refWall += s.wall.Seconds() / g
		queries += s.queries
		raw = append(raw, s.lat...)
		for _, d := range s.lat {
			ref = append(ref, int64(float64(d)/g))
		}
	}
	slices.Sort(raw)
	slices.Sort(ref)
	name := r.w.name
	fmt.Printf("%s samples %d count\n%s measured_s %v s\n%s slowdown_mean %v ratio\n",
		name, len(raw), name, rawWall, name, slow)
	fmt.Printf("%s qps_raw %v 1/s\n", name, float64(queries)/rawWall)
	// The tail beyond p95 is printed, not gated: see README, "Noise".
	for _, q := range []float64{50, 95, 99, 99.9} {
		fmt.Printf("%s p%v_ms_raw %v ms\n", name, q, percentile(raw, q/100)/1e6)
	}
	for _, q := range []float64{99, 99.9} {
		fmt.Printf("%s p%v_ms %v ms\n", name, q, percentile(ref, q/100)/1e6)
	}
	return map[string]float64{
		"qps":    float64(queries) / refWall,
		"p50_ms": percentile(ref, 0.50) / 1e6,
		"p95_ms": percentile(ref, 0.95) / 1e6,
	}
}
