// Package qproc implements the distributed query processing module of
// Section 5: document-partitioned scatter-gather with a broker, the
// two-round global-statistics protocol, pipelined term-partitioned
// evaluation, collection selection, broker hierarchies, result caching
// with failure masking, multi-site routing (geographic, load-aware,
// topical, language), and incremental query processing.
//
// All engines run on virtual time and account per-server busy load, so
// the Figure 2 comparison and the Webber-style resource measurements
// (experiment C6) fall out of instrumented query replay.
package qproc

import "dwr/internal/rank"

// The cost model converts index work into virtual service milliseconds.
// It is deliberately simple — a fixed per-query overhead plus a
// per-posting decode cost — because the load-balance phenomena of
// Figure 2 come from which server does the decoding, not from the
// absolute constants.
const (
	fixedMs          = 0.1   // per query-fragment overhead on a server
	perPostingMs     = 0.002 // per posting decoded
	perAccumulatorMs = 0.001 // per travelling-accumulator entry a pipeline server touches
	cacheHitMs       = 0.2   // broker-local result-cache hit: a hash lookup, no fan-out
	lanMs            = 0.3   // one LAN message between a broker and a server, or server to server
)

// serviceMs returns the service time for decoding n postings.
func serviceMs(postings int) float64 {
	return fixedMs + float64(postings)*perPostingMs
}

// accumulatorMs returns the cost of receiving, merging, and forwarding a
// travelling accumulator of n entries — the per-hop CPU overhead that
// makes pipelined term-partitioned systems lose the throughput race even
// when their load is balanced (Webber et al.).
func accumulatorMs(n int) float64 {
	return float64(n) * perAccumulatorMs
}

// QueryResult is the outcome of one distributed query evaluation.
type QueryResult struct {
	Results          []rank.Result
	LatencyMs        float64
	ServersContacted int
	PostingsDecoded  int   // postings touched across all servers
	ListsAccessed    int   // posting-list fetches (disk accesses) across all servers
	PostingBytesRead int64 // encoded posting bytes accessed (disk cost)
	// PostingBytesDecoded is the encoded bytes actually decoded (blocks
	// touched); dynamic pruning lowers this below PostingBytesRead by
	// skipping non-competitive blocks.
	PostingBytesDecoded int64
	BytesTransferred    int64 // result/accumulator bytes moved between servers
	FromCache           bool
	Stale               bool // answered from cache beyond its freshness TTL
	Degraded            bool // some selected servers were down; partial answer
	// PartitionsSkipped counts live partitions the threshold-sharing
	// scheduler never contacted because their resident score upper bound
	// could not beat the broker's running k-th score (always 0 on the
	// single-wave path). Skipped is not lost: a skipped partition
	// provably holds no global top-k document.
	PartitionsSkipped int
	// Waves is the number of evaluation scatter waves the broker
	// dispatched: 1 for single-wave scatter-gather, possibly more under
	// threshold sharing, 0 for cache hits and all-down answers.
	Waves   int
	Retries int // partition-call retries the fault policy spent
	// Err is set when the engine could not produce an acceptable answer:
	// ErrUnavailable under a fail-fast fault policy, ErrAllSitesDown when
	// a multi-site query found no reachable processor. Inspect with
	// errors.Is; nil for every served answer, including degraded ones.
	Err error
}

// resultBytes estimates the wire size of a result list (doc ID + score).
func resultBytes(n int) int64 { return int64(n) * 12 }
