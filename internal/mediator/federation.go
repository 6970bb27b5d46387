package mediator

import (
	"sync"

	"dwr/internal/qproc"
	"dwr/internal/rank"
)

// Federation adapts a mediated MultiSite into a concurrent-safe
// qproc.Engine for the HTTP front-end: MultiSite is single-caller (its
// virtual clock, WAN model, and fault schedule are stateful), so
// Federation serializes queries with a mutex, submits each on the
// federated path, and — optionally — samples mediated answers against
// the exhaustive fan-out so EngineStats.Selection reports measured
// Recall@k.
type Federation struct {
	// SampleEvery takes a recall sample on every Nth successfully
	// mediated (pruned, non-cached) query: the same terms are evaluated
	// exhaustively and the mediated answer's Recall@k against it is fed
	// into the selection counters. 0 disables sampling. Set before
	// serving begins.
	SampleEvery int

	mu       sync.Mutex
	ms       *qproc.MultiSite
	mediated int
}

// Interface conformance, checked at compile time.
var (
	_ qproc.Engine          = (*Federation)(nil)
	_ qproc.DeadlineQuerier = (*Federation)(nil)
)

// NewFederation wraps ms (which should be configured with
// qproc.WithMediator; without one every query is a plain full fan-out).
func NewFederation(ms *qproc.MultiSite) *Federation {
	return &Federation{ms: ms}
}

// QueryTopK implements qproc.Engine: QueryTopKWithin with no budget.
func (f *Federation) QueryTopK(terms []string, k int) qproc.QueryResult {
	return f.QueryTopKWithin(terms, k, 0)
}

// QueryTopKWithin implements qproc.DeadlineQuerier: one federated
// submission from the MultiSite's HomeRegion at its virtual hour Now,
// the budget checked on the final routed answer as in
// MultiSite.QueryTopKWithin.
func (f *Federation) QueryTopKWithin(terms []string, k int, deadlineMs float64) qproc.QueryResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.ms.QueryFederated(terms, qproc.NormalizeQueryKey(terms), f.ms.HomeRegion, f.ms.Now, k)
	if f.SampleEvery > 0 && !r.FullFanout && !r.FromCache && r.Err == nil {
		f.mediated++
		if f.mediated%f.SampleEvery == 0 {
			exh := f.ms.QueryExhaustiveResults(terms, f.ms.Now, k)
			f.ms.ObserveSelectionRecall(Recall(r.Results, exh))
		}
	}
	qproc.EnforceDeadline(&r.QueryResult, deadlineMs)
	return r.QueryResult
}

// K implements qproc.Engine.
func (f *Federation) K() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ms.K()
}

// Stats implements qproc.Engine.
func (f *Federation) Stats() qproc.EngineStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ms.Stats()
}

// Health implements qproc.Engine.
func (f *Federation) Health() qproc.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ms.Health()
}

// MultiSite returns the wrapped broker; callers must hold no queries in
// flight when driving it directly.
func (f *Federation) MultiSite() *qproc.MultiSite { return f.ms }

// Recall measures result quality the way the collection-selection
// literature does: the fraction of the reference answer's documents
// (the exhaustive fan-out's top-k) present in the observed answer. An
// empty reference counts as perfect — there was nothing to miss.
func Recall(got, reference []rank.Result) float64 {
	if len(reference) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, r := range got {
		in[r.Doc] = true
	}
	hit := 0
	for _, r := range reference {
		if in[r.Doc] {
			hit++
		}
	}
	return float64(hit) / float64(len(reference))
}
