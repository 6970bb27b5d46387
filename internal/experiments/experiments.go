// Package experiments regenerates every table and figure of the paper,
// plus the quantitative claims embedded in its prose, as printable
// reports with machine-checkable headline values. cmd/dwrbench runs them
// as its paper scenario, gates the values against docs/BENCH_paper.json
// and times each run; EXPERIMENTS.md records paper-reported versus
// measured values.
package experiments

import (
	"fmt"
	"io"

	"dwr/internal/metrics"
)

// Result is one regenerated experiment.
type Result struct {
	ID     string // e.g. "F2", "C7"
	Title  string
	Tables []*metrics.Table
	Notes  []string
	// Values holds the headline measurements, keyed by short names: a
	// pure function of the seeds, so tests assert the reproduced shape
	// and dwrbench -check holds each to docs/BENCH_paper.json.
	Values map[string]float64
	// Timings holds headline measurements read off the wall clock;
	// reported beside Values, never gated.
	Timings map[string]float64
}

// Render prints the report: title, tables, then notes. The numbers are
// not printed here — cmd/dwrbench files Values and Timings as the
// experiment's row of the paper scenario.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "===== %s — %s =====\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Experiment is one registered reproduction of a paper table, figure,
// or prose claim.
type Experiment struct {
	ID    string // e.g. "F2", "C7"
	Title string
	Run   func() *Result
}

// Registry lists every experiment in paper order. It is the one place an
// experiment's ID and title are written; newResult reads them back.
func Registry() []Experiment {
	return []Experiment{
		{"T1", "Main modules of a distributed Web retrieval system, and key issues for each module", Table1Inventory},
		{"F1", "Document vs term partitioning of the term-document matrix", Figure1Partitioning},
		{"F2", "Average busy load per server: document vs pipelined term partitioning (8 servers)", Figure2BusyLoad},
		{"F5", "Site unavailability in a 16-site multi-site system (8 months)", Figure5Availability},
		{"F6", "Maximum capacity of a front-end server, G/G/150 model", Figure6Capacity},
		{"C1", "Section 1 capacity arithmetic and 2010 projection", Claim1CapacityPlan},
		{"C2", "URL assignment churn: modulo vs consistent hashing (20 agents, 50k hosts)", Claim2ConsistentHashing},
		{"C3", "URL exchange traffic: locality, batching, most-cited seeding (4 agents)", Claim3URLExchange},
		{"C4", "DNS load with and without a resolver cache", Claim4DNSCache},
		{"C5", "Crawler robustness: coverage under failures, and re-crawl economics", Claim5Coverage},
		{"C6", "Term vs document partitioning: disk, network, throughput (8 servers)", Claim6TermVsDoc},
		{"C7", "Term-partitioned load balancing: random vs bin-packing vs co-occurrence-aware (8 servers)", Claim7BinPacking},
		{"C8", "Collection selection: query-driven vs CORI vs random (16 partitions)", Claim8CollectionSelection},
		{"C9", "Global vs local statistics: result agreement with the centralized ranking", Claim9GlobalStats},
		{"C10", "Result caching: policy hit ratios and failure masking", Claim10Caching},
		{"C11", "Replication degree vs availability, and mechanism behaviour under faults", Claim11Replication},
		{"C12", "Multi-site routing: geographic proximity and peak-hour offloading (3 sites)", Claim12MultiSiteRouting},
		{"C13", "Incremental query processing across 3 sites", Claim13Incremental},
		{"C14", "Index construction strategies and layout ablation", Claim14IndexBuild},
		{"C15", "Online index maintenance: lockout under concurrent updates", Claim15OnlineMaintenance},
		{"C16", "User-model drift: routing degradation and automatic reconfiguration", Claim16DriftReconfiguration},
		{"C17", "Language-partitioned index and language-identified query routing", Claim17LanguageRouting},
		{"C18", "Geographic crawler placement: region-affinity vs region-blind assignment (6 agents, 3 regions)", Claim18GeoCrawling},
		{"C19", "Client/server vs peer-to-peer: capacity scaling and overlay routing", Claim19P2PArchitecture},
		{"C20", "Phrase search: position shipping across the two partitionings", Claim20PhraseShipping},
		{"C21", "Personalization: consistent per-user state and client-side alternative", Claim21Personalization},
		{"C22", "Federated vs open systems: the value of offloading under self-interest", Claim22FederatedVsOpen},
		{"C23", "Frontier prioritization: in-degree mass captured by crawl prefix", Claim23FrontierPrioritization},
	}
}

// newResult starts the report of the registered experiment id.
func newResult(id string) *Result {
	for _, e := range Registry() {
		if e.ID == id {
			return &Result{ID: id, Title: e.Title}
		}
	}
	panic("experiments: " + id + " is not in Registry")
}
