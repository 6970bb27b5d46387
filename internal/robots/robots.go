// Package robots implements the crawler-politeness substrate of
// Section 3: robots.txt parsing and the de facto operational standards
// ("a crawler should not open more than one connection at a time to each
// Web server, and should wait several seconds between repeated
// accesses").
package robots

import (
	"strconv"
	"strings"
	"sync"
)

// Rules is the parsed policy of one host's robots.txt for a particular
// user agent.
type Rules struct {
	disallow   []string
	allow      []string
	CrawlDelay float64 // seconds between accesses; 0 = unspecified
}

// Parse parses a robots.txt body for the given user agent. Parsing is
// tolerant: unknown directives, stray whitespace, missing colons, and
// comments are skipped. A nil-safe zero Rules allows everything.
func Parse(body, userAgent string) *Rules {
	r := &Rules{}
	applies := false
	for _, line := range strings.Split(body, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(line[:colon]))
		val := strings.TrimSpace(line[colon+1:])
		switch key {
		case "user-agent":
			applies = val == "*" || strings.EqualFold(val, userAgent)
		case "disallow":
			if applies && val != "" {
				r.disallow = append(r.disallow, val)
			}
		case "allow":
			if applies && val != "" {
				r.allow = append(r.allow, val)
			}
		case "crawl-delay":
			if applies {
				if d, err := strconv.ParseFloat(val, 64); err == nil && d >= 0 {
					r.CrawlDelay = d
				}
			}
		}
	}
	return r
}

// Allowed reports whether the path may be fetched. Longest-match wins
// between Allow and Disallow, matching the common interpretation.
func (r *Rules) Allowed(path string) bool {
	if r == nil {
		return true
	}
	longestAllow, longestDis := -1, -1
	for _, p := range r.allow {
		if strings.HasPrefix(path, p) && len(p) > longestAllow {
			longestAllow = len(p)
		}
	}
	for _, p := range r.disallow {
		if strings.HasPrefix(path, p) && len(p) > longestDis {
			longestDis = len(p)
		}
	}
	return longestAllow >= longestDis
}

// Politeness enforces per-host access pacing on a virtual clock: at most
// one in-flight request per host, and at least minDelay (or the host's
// Crawl-delay) seconds between request starts.
type Politeness struct {
	mu       sync.Mutex
	minDelay float64
	next     map[string]float64 // host -> earliest next allowed start time
	inFlight map[string]bool
}

// NewPoliteness creates a politeness gate with a default inter-access
// delay in seconds.
func NewPoliteness(minDelay float64) *Politeness {
	return &Politeness{
		minDelay: minDelay,
		next:     make(map[string]float64),
		inFlight: make(map[string]bool),
	}
}

// TryAcquire attempts to begin a request to host at virtual time now
// honouring crawlDelay (0 = use the default). It returns (true, now) on
// success, or (false, earliest) telling the caller when to retry.
func (p *Politeness) TryAcquire(host string, now, crawlDelay float64) (bool, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inFlight[host] {
		// One connection per server: caller must wait for Release.
		t := p.next[host]
		if t < now {
			t = now + p.effectiveDelay(crawlDelay)
		}
		return false, t
	}
	if t, ok := p.next[host]; ok && t > now {
		return false, t
	}
	p.inFlight[host] = true
	return true, now
}

// Release ends a request to host that started at virtual time start and
// finished at virtual time end, scheduling the earliest next access.
func (p *Politeness) Release(host string, end, crawlDelay float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inFlight, host)
	p.next[host] = end + p.effectiveDelay(crawlDelay)
}

func (p *Politeness) effectiveDelay(crawlDelay float64) float64 {
	if crawlDelay > p.minDelay {
		return crawlDelay
	}
	return p.minDelay
}
