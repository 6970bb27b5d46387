package simweb

import (
	"fmt"
	"math/rand"
	"sort"

	"dwr/internal/randx"
)

// Config controls the synthetic Web generator. The zero value is not
// usable; start from DefaultConfig and override fields.
type Config struct {
	Seed int64

	Hosts    int // number of Web servers
	MinPages int // minimum pages per host
	MaxPages int // cap on pages per host

	VocabSize int      // terms per language
	Languages []string // language codes; hosts are monolingual
}

// The Web's distributional shape: heavy-tailed host sizes, Zipf terms
// with topical bands, and a local, preferentially attached link graph.
const (
	meanPagesPower = 1.4 // Pareto shape for pages-per-host (smaller = heavier tail)
	topics         = 16  // topical bands in the vocabulary
	topicBias      = 0.5 // probability a term draw is topical rather than global
	zipfS          = 1.0 // exponent of the global term distribution

	minWords = 60  // words per page, lower bound
	maxWords = 400 // words per page, upper bound

	outDegreeMean = 8    // mean links per page
	linkLocality  = 0.75 // probability a link targets the same host (paper §3: "most of the links ... point to other pages in the same server")

	regions = 3 // geographic regions hosts are spread over

	meanChangeRate = 0.02 // mean per-day page change probability
)

// Server behaviour (paper §3, external factors): a minority of
// misbehaving servers.
const (
	flakyHostFrac     = 0.08 // fraction of hosts that fail requests transiently
	flakyFailProb     = 0.3  // per-request failure probability on flaky hosts
	slowHostFrac      = 0.05 // fraction of hosts with 10× latency
	baseLatencyMs     = 40   // median server response latency
	malformedFrac     = 0.15 // fraction of hosts emitting broken HTML
	nonConformingFrac = 0.10 // fraction of hosts ignoring If-Modified-Since
	robotsFrac        = 0.3  // fraction of hosts with a /private disallow rule
	privateFrac       = 0.1  // fraction of a host's pages under /private when robots apply
	sitemapFrac       = 0.25 // fraction of hosts exposing a sitemap
)

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		Hosts:     200,
		MinPages:  2,
		MaxPages:  400,
		VocabSize: 8000,
		Languages: []string{"en", "es", "it"},
	}
}

// Host is one simulated Web server.
type Host struct {
	ID            int
	Name          string
	Region        int
	Lang          string
	Pages         []int // global page IDs, in path order
	Flaky         bool
	Slow          bool
	Malformed     bool
	NonConforming bool
	HasRobots     bool
	HasSitemap    bool
	LatencyMs     float64 // median response latency
}

// Page is one simulated Web page. Terms are stored as dense IDs into the
// host language's vocabulary; HTML is rendered on demand by Fetch.
type Page struct {
	ID         int
	Host       int
	Path       string
	Topic      int
	Private    bool    // under the robots-disallowed prefix
	Terms      []int32 // term IDs in document order
	Links      []int   // global page IDs this page links to
	InDegree   int
	ChangeRate float64 // per-day probability of modification
}

// Web is a fully generated synthetic Web.
type Web struct {
	Config Config
	Hosts  []*Host
	Pages  []*Page
	Vocabs map[string]*Vocabulary
	Topics *TopicModel
}

// New generates a Web from cfg. Generation is deterministic in cfg.Seed.
func New(cfg Config) *Web {
	rng := randx.New(cfg.Seed)
	w := &Web{Config: cfg, Vocabs: make(map[string]*Vocabulary)}
	if len(cfg.Languages) == 0 {
		cfg.Languages = []string{"en"}
		w.Config.Languages = cfg.Languages
	}
	for _, lang := range cfg.Languages {
		w.Vocabs[lang] = NewVocabulary(lang, cfg.VocabSize)
	}
	w.Topics = NewTopicModel(topics, cfg.VocabSize)

	w.generateHosts(rng)
	w.generatePages(rng)
	w.generateLinks(rng)
	return w
}

func (w *Web) generateHosts(rng *rand.Rand) {
	cfg := w.Config
	w.Hosts = make([]*Host, cfg.Hosts)
	for i := range w.Hosts {
		lat := baseLatencyMs * randx.LogNormal(rng, 0, 0.4)
		h := &Host{
			ID:            i,
			Name:          fmt.Sprintf("h%04d.example", i),
			Region:        rng.Intn(regions),
			Lang:          cfg.Languages[rng.Intn(len(cfg.Languages))],
			Flaky:         randx.Bernoulli(rng, flakyHostFrac),
			Slow:          randx.Bernoulli(rng, slowHostFrac),
			Malformed:     randx.Bernoulli(rng, malformedFrac),
			NonConforming: randx.Bernoulli(rng, nonConformingFrac),
			HasRobots:     randx.Bernoulli(rng, robotsFrac),
			HasSitemap:    randx.Bernoulli(rng, sitemapFrac),
			LatencyMs:     lat,
		}
		if h.Slow {
			h.LatencyMs *= 10
		}
		w.Hosts[i] = h
	}
}

func (w *Web) generatePages(rng *rand.Rand) {
	cfg := w.Config
	global := randx.NewZipf(cfg.VocabSize, zipfS)
	bandWidth := cfg.VocabSize / topics
	band := randx.NewZipf(max(1, bandWidth), zipfS)

	for _, h := range w.Hosts {
		n := int(randx.BoundedPareto(rng, float64(cfg.MinPages), meanPagesPower, float64(cfg.MaxPages)))
		// A host leans toward one topic; pages mostly share it.
		homeTopic := rng.Intn(topics)
		for j := 0; j < n; j++ {
			topic := homeTopic
			if rng.Float64() < 0.2 {
				topic = rng.Intn(topics)
			}
			private := h.HasRobots && randx.Bernoulli(rng, privateFrac)
			path := fmt.Sprintf("/p%d.html", j)
			if private {
				path = fmt.Sprintf("/private/p%d.html", j)
			}
			nWords := minWords + rng.Intn(maxWords-minWords+1)
			terms := make([]int32, nWords)
			for k := range terms {
				terms[k] = int32(w.Topics.Draw(rng, topic, global, band, topicBias))
			}
			p := &Page{
				ID:         len(w.Pages),
				Host:       h.ID,
				Path:       path,
				Topic:      topic,
				Private:    private,
				Terms:      terms,
				ChangeRate: randx.Exp(rng, meanChangeRate),
			}
			if p.ChangeRate > 1 {
				p.ChangeRate = 1
			}
			h.Pages = append(h.Pages, p.ID)
			w.Pages = append(w.Pages, p)
		}
	}
}

// generateLinks wires the link graph with a copy model: each link target
// is, with probability linkLocality, a uniform page on the same host;
// otherwise, half the time a uniform random page and half the time the
// target of an existing link (preferential attachment), which yields the
// power-law in-degree distribution the paper's URL-exchange optimization
// relies on.
func (w *Web) generateLinks(rng *rand.Rand) {
	if len(w.Pages) == 0 {
		return
	}
	var endpoints []int // multiset of link targets seen so far
	for _, p := range w.Pages {
		out := int(randx.Exp(rng, outDegreeMean))
		if out < 1 {
			out = 1
		}
		host := w.Hosts[p.Host]
		for l := 0; l < out; l++ {
			var target int
			if rng.Float64() < linkLocality && len(host.Pages) > 1 {
				// Intra-host: sites link their front page heavily
				// (navigation bars), so skew local targets toward it.
				if rng.Float64() < 0.4 {
					target = host.Pages[0]
				} else {
					target = host.Pages[rng.Intn(len(host.Pages))]
				}
			} else if len(endpoints) > 0 && rng.Float64() < 0.8 {
				target = endpoints[rng.Intn(len(endpoints))]
			} else {
				target = rng.Intn(len(w.Pages))
			}
			if target == p.ID {
				continue
			}
			p.Links = append(p.Links, target)
			w.Pages[target].InDegree++
			endpoints = append(endpoints, target)
		}
	}
}

// Regions returns the number of geographic regions hosts are spread over.
func (w *Web) Regions() int { return regions }

// URL returns the absolute URL of a page.
func (w *Web) URL(pageID int) string {
	p := w.Pages[pageID]
	return "http://" + w.Hosts[p.Host].Name + p.Path
}

// Words returns a page's terms as words of its host's language, in
// document order — the page's exact text, without rendering or parsing.
func (w *Web) Words(pageID int) []string {
	p := w.Pages[pageID]
	vocab := w.Vocabs[w.Hosts[p.Host].Lang]
	words := make([]string, len(p.Terms))
	for i, tid := range p.Terms {
		words[i] = vocab.Word(int(tid))
	}
	return words
}

// PageByURL resolves an absolute URL to a page ID, or -1 if the URL does
// not exist on this Web (a dangling or malformed link).
func (w *Web) PageByURL(url string) int {
	host, path, ok := SplitURL(url)
	if !ok {
		return -1
	}
	h := w.HostByName(host)
	if h == nil {
		return -1
	}
	for _, pid := range h.Pages {
		if w.Pages[pid].Path == path {
			return pid
		}
	}
	return -1
}

// HostByName resolves a host name, or nil if unknown.
func (w *Web) HostByName(name string) *Host {
	// Host names encode their ID; parse rather than scan.
	var id int
	if _, err := fmt.Sscanf(name, "h%d.example", &id); err != nil || id < 0 || id >= len(w.Hosts) {
		return nil
	}
	if w.Hosts[id].Name != name {
		return nil
	}
	return w.Hosts[id]
}

// SplitURL splits an absolute http URL into host and path. ok is false
// for URLs this Web cannot serve.
func SplitURL(url string) (host, path string, ok bool) {
	const pfx = "http://"
	if len(url) < len(pfx) || url[:len(pfx)] != pfx {
		return "", "", false
	}
	rest := url[len(pfx):]
	slash := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return rest, "/", true
	}
	return rest[:slash], rest[slash:], true
}

// MostCited returns the n page IDs with the highest in-degree, the
// "most cited URLs in the collection" the paper suggests seeding agents
// with to cut URL-exchange traffic.
func (w *Web) MostCited(n int) []int {
	ids := make([]int, len(w.Pages))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if w.Pages[ids[a]].InDegree != w.Pages[ids[b]].InDegree {
			return w.Pages[ids[a]].InDegree > w.Pages[ids[b]].InDegree
		}
		return ids[a] < ids[b]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// CrawlablePages returns the number of pages reachable by a compliant
// crawler (i.e. not robots-disallowed).
func (w *Web) CrawlablePages() int {
	n := 0
	for _, p := range w.Pages {
		if !p.Private {
			n++
		}
	}
	return n
}
