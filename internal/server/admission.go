package server

import (
	"math"

	"dwr/internal/metrics"
)

// TokenBucket is the admission controller: admissions are paced at a
// sustained rate with a bounded burst. Time is the caller's clock in
// seconds (virtual under Run, wall-relative under Frontend); the caller
// also provides synchronization.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
	primed bool
}

// NewTokenBucket creates a bucket admitting ratePerSec sustained with
// up to burst back-to-back admissions. ratePerSec <= 0 disables the
// bucket (Allow always true); burst <= 0 picks 1. The bucket starts
// full.
func NewTokenBucket(ratePerSec, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = 1
	}
	return &TokenBucket{rate: ratePerSec, burst: burst, tokens: burst}
}

// Allow reports whether an arrival at time now (seconds, nondecreasing
// across calls) is admitted, consuming one token if so.
func (b *TokenBucket) Allow(now float64) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	if b.primed {
		if dt := now - b.last; dt > 0 {
			b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		}
	}
	b.last = now
	b.primed = true
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// ShedConfig tunes the adaptive load shedder.
type ShedConfig struct {
	// TargetP99Ms is the p99 latency SLO the shedder defends: when the
	// observed p99 of completed requests exceeds it, the shed level
	// rises; when latency recovers, the level decays. <= 0 disables
	// adaptive shedding.
	TargetP99Ms float64
	// Window is the number of completions per control period
	// (<= 0 picks 200).
	Window int
}

// shedStep is the shedder's proportional controller gain.
const shedStep = 0.15

// maxShedLevel caps the shed level so some interactive traffic is
// always admitted: with no admitted requests there would be no
// completions, and a controller fed only by completions could never
// observe the recovery that lets it back off.
const maxShedLevel = 0.9

// Shedder is the adaptive load-shedding controller: it watches the
// latency of completed requests through a bucketed histogram
// (metrics.Histogram), and once per window compares the conservative
// p99 estimate (Histogram.Quantile) against the SLO, moving a shed
// level in [0, maxShedLevel]. The level maps to per-class drop
// probabilities that sacrifice batch traffic first:
//
//	batch:       min(1, 2·level)
//	interactive: max(0, 2·level − 1)
//
// so level 0.5 sheds all batch and no interactive load, and the cap
// keeps a trickle of interactive admissions flowing even at the top.
// The caller provides synchronization and the admission coin flips.
type Shedder struct {
	cfg    ShedConfig
	bounds []float64
	hist   *metrics.Histogram
	level  float64
}

// NewShedder creates a shedder for cfg; nil-safe to use when
// cfg.TargetP99Ms <= 0 (never sheds).
func NewShedder(cfg ShedConfig) *Shedder {
	if cfg.TargetP99Ms <= 0 {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = 200
	}
	// Geometric buckets centred on the target so the p99 estimate is
	// sharp where the control decision happens.
	t := cfg.TargetP99Ms
	bounds := []float64{t / 16, t / 8, t / 4, t / 2, t * 0.75, t, t * 1.5, t * 2, t * 4, t * 8, t * 16}
	return &Shedder{cfg: cfg, bounds: bounds, hist: metrics.NewHistogram(bounds)}
}

// Observe records one completed request's latency (ms, arrival to
// completion) and, at window boundaries, runs the control step.
func (s *Shedder) Observe(latencyMs float64) {
	if s == nil {
		return
	}
	s.hist.Add(latencyMs)
	if s.hist.Total() < s.cfg.Window {
		return
	}
	p99 := s.hist.Quantile(0.99)
	if math.IsInf(p99, 1) {
		// The quantile fell past the last bucket (16× target): treat as
		// that bound — a strong but finite push upward.
		p99 = s.bounds[len(s.bounds)-1]
	}
	s.level += shedStep * (p99/s.cfg.TargetP99Ms - 1)
	if s.level < 0 {
		s.level = 0
	}
	if s.level > maxShedLevel {
		s.level = maxShedLevel
	}
	s.hist = metrics.NewHistogram(s.bounds)
}

// Level returns the current shed level in [0, maxShedLevel].
func (s *Shedder) Level() float64 {
	if s == nil {
		return 0
	}
	return s.level
}

// DropProb returns the probability an arrival of class c is shed at the
// current level.
func (s *Shedder) DropProb(c Class) float64 {
	if s == nil {
		return 0
	}
	if c == Batch {
		return math.Min(1, 2*s.level)
	}
	return math.Max(0, 2*s.level-1)
}

// Admit decides one arrival given a uniform variate u in [0, 1) from
// the caller's seeded RNG (passing the variate in keeps the decision
// deterministic and the Shedder clock- and rand-free).
func (s *Shedder) Admit(c Class, u float64) bool {
	return u >= s.DropProb(c)
}
