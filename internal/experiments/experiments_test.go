package experiments

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dwr/internal/rank"
)

// These tests assert the reproduced SHAPE of every paper artifact: who
// wins, by roughly what factor, where crossovers fall. Absolute numbers
// are substrate-dependent and not asserted tightly.

func TestTable1Inventory(t *testing.T) {
	r := Table1Inventory()
	if r.Values["cells"] != 12 || r.Values["covered"] != 12 {
		t.Fatalf("Table 1 coverage %v/%v, want 12/12", r.Values["covered"], r.Values["cells"])
	}
}

func TestFigure1Shape(t *testing.T) {
	r := Figure1Partitioning()
	if r.Values["doc_postings"] != r.Values["central_postings"] {
		t.Fatalf("document slicing lost postings: %v vs %v", r.Values["doc_postings"], r.Values["central_postings"])
	}
	if r.Values["term_postings"] != r.Values["central_postings"] {
		t.Fatalf("term slicing lost postings: %v vs %v", r.Values["term_postings"], r.Values["central_postings"])
	}
	if r.Values["doc_avg_servers"] != 4 {
		t.Fatalf("document partitioning avg servers %v, want 4 (broadcast)", r.Values["doc_avg_servers"])
	}
	if r.Values["term_avg_servers"] >= r.Values["doc_avg_servers"] {
		t.Fatal("term partitioning did not reduce servers contacted")
	}
}

func TestFigure2Shape(t *testing.T) {
	r := Figure2BusyLoad()
	if r.Values["doc_cv"] >= r.Values["term_cv"] {
		t.Fatalf("doc CV %v not below term CV %v", r.Values["doc_cv"], r.Values["term_cv"])
	}
	if r.Values["doc_maxover"] > 1.4 {
		t.Fatalf("doc max/mean %v, want near 1 (flat like the figure's left panel)", r.Values["doc_maxover"])
	}
	if r.Values["term_maxover"] < 1.3 {
		t.Fatalf("term max/mean %v, want visible imbalance like the right panel", r.Values["term_maxover"])
	}
}

func TestFigure5Shape(t *testing.T) {
	r := Figure5Availability()
	if r.Values["first_bar"] < 6 || r.Values["first_bar"] > 16 {
		t.Fatalf("first bar %v sites, paper reports ≈10 of 16", r.Values["first_bar"])
	}
	if r.Values["last_bar"] >= r.Values["first_bar"] {
		t.Fatal("histogram must decrease toward lower thresholds")
	}
}

func TestFigure6Shape(t *testing.T) {
	r := Figure6Capacity()
	if r.Values["bound_10ms_kqps"] != 15 {
		t.Fatalf("bound at 10ms = %v kqps, want 15", r.Values["bound_10ms_kqps"])
	}
	if r.Values["bound_100ms_kqps"] != 1.5 {
		t.Fatalf("bound at 100ms = %v kqps, want 1.5", r.Values["bound_100ms_kqps"])
	}
	// The DES rows' shape at E[S] = 50 ms: below the bound a request
	// waits less than one service time; above it the backlog grows
	// without bound, past ten service times on average (a shedding
	// queue would cap it near its depth over the pool's rate instead).
	const serviceMs = 50
	if w := r.Values["below_wait_ms"]; w >= serviceMs {
		t.Fatalf("below-bound mean wait %vms, want under one service time (%vms)", w, serviceMs)
	}
	if w := r.Values["above_wait_ms"]; w <= 10*serviceMs {
		t.Fatalf("above-bound mean wait %vms, want over ten service times (%vms)", w, 10*serviceMs)
	}
}

func TestClaim1Shape(t *testing.T) {
	r := Claim1CapacityPlan()
	if v := r.Values["nodes_per_cluster"]; v < 2500 || v > 3500 {
		t.Fatalf("nodes/cluster %v, want ≈3000", v)
	}
	if v := r.Values["total_nodes"]; v < 28000 || v > 40000 {
		t.Fatalf("total %v, want ≈30000", v)
	}
	if r.Values["cost_musd"] < 100 {
		t.Fatalf("cost %vM$, want >100", r.Values["cost_musd"])
	}
	if v := r.Values["total_2010"]; v < 1.3e6 || v > 1.8e6 {
		t.Fatalf("2010 total %v, want ≈1.5M", v)
	}
}

func TestClaim2Shape(t *testing.T) {
	r := Claim2ConsistentHashing()
	if r.Values["mod_join"] < 0.8 {
		t.Fatalf("mod-hash join churn %v, want ≈0.95", r.Values["mod_join"])
	}
	if r.Values["ring_join"] > 0.12 {
		t.Fatalf("consistent-hash join churn %v, want ≈1/21", r.Values["ring_join"])
	}
	if r.Values["ring_leave"] > 0.12 {
		t.Fatalf("consistent-hash leave churn %v, want ≈1/20", r.Values["ring_leave"])
	}
}

func TestClaim3Shape(t *testing.T) {
	r := Claim3URLExchange()
	if r.Values["messages_batch64"]*10 > r.Values["messages_batch1"] {
		t.Fatalf("batching cut messages only from %v to %v", r.Values["messages_batch1"], r.Values["messages_batch64"])
	}
	if r.Values["urls_seeded"] >= r.Values["urls_plain"] {
		t.Fatal("most-cited seeding did not reduce exchanged URLs")
	}
	if r.Values["suppressed"] == 0 {
		t.Fatal("seeding suppressed nothing")
	}
	if r.Values["exchange_fraction"] > 0.5 {
		t.Fatalf("exchange fraction %v; link locality should keep most links local", r.Values["exchange_fraction"])
	}
}

func TestClaim4Shape(t *testing.T) {
	r := Claim4DNSCache()
	if r.Values["queries_cache"]*2 > r.Values["queries_nocache"] {
		t.Fatalf("cache cut DNS queries only from %v to %v", r.Values["queries_nocache"], r.Values["queries_cache"])
	}
	if r.Values["hit_ratio"] < 0.5 {
		t.Fatalf("hit ratio %v", r.Values["hit_ratio"])
	}
}

func TestClaim5Shape(t *testing.T) {
	r := Claim5Coverage()
	if r.Values["coverage"] < 0.85 {
		t.Fatalf("coverage %v, want ≥0.85 despite flaky servers", r.Values["coverage"])
	}
	if r.Values["not_modified"] == 0 {
		t.Fatal("no 304s on re-crawl")
	}
}

func TestClaim6Shape(t *testing.T) {
	r := Claim6TermVsDoc()
	if r.Values["term_servers"] >= r.Values["doc_servers"] {
		t.Fatal("term partitioning did not reduce servers per query")
	}
	if r.Values["term_accesses"] >= r.Values["doc_accesses"] {
		t.Fatalf("term partitioning disk accesses/query %v not below document %v",
			r.Values["term_accesses"], r.Values["doc_accesses"])
	}
	if r.Values["doc_throughput"] <= r.Values["term_throughput"] {
		t.Fatal("document partitioning did not win on throughput")
	}
}

func TestClaim7Shape(t *testing.T) {
	r := Claim7BinPacking()
	if r.Values["binpack_cv"] >= r.Values["random_cv"] {
		t.Fatalf("bin-packing CV %v not below random %v", r.Values["binpack_cv"], r.Values["random_cv"])
	}
	if r.Values["cooccur_parts"] >= r.Values["random_parts"] {
		t.Fatalf("co-occurrence parts/query %v not below random %v", r.Values["cooccur_parts"], r.Values["random_parts"])
	}
}

func TestClaim8Shape(t *testing.T) {
	r := Claim8CollectionSelection()
	if r.Values["qd_recall1"] <= r.Values["cori_recall1"] {
		t.Fatalf("query-driven recall@1 %v not above CORI %v", r.Values["qd_recall1"], r.Values["cori_recall1"])
	}
	if r.Values["cori_recall1"] <= r.Values["rand_recall1"] {
		t.Fatalf("CORI recall@1 %v not above random %v", r.Values["cori_recall1"], r.Values["rand_recall1"])
	}
	// The paper reports ≈53%% never-recalled at Web scale; at this corpus
	// size training covers proportionally more of the collection, so we
	// assert only that the slice is substantial and bounded.
	if v := r.Values["never_recalled"]; v < 0.05 || v > 0.9 {
		t.Fatalf("never-recalled fraction %v; want a substantial slice (paper: ≈0.53 at Web scale)", v)
	}
}

func TestClaim9Shape(t *testing.T) {
	r := Claim9GlobalStats()
	if r.Values["tworound_overlap"] != 1 {
		t.Fatalf("two-round protocol overlap %v, must be exactly 1", r.Values["tworound_overlap"])
	}
	if r.Values["local_overlap_16"] >= 0.9999 {
		t.Fatal("local-only statistics never diverged; skew not exercised")
	}
	if r.Values["local_overlap_4"] <= r.Values["local_overlap_16"] {
		t.Fatalf("divergence should shrink with fewer, larger partitions: overlap@4parts %v vs @16parts %v",
			r.Values["local_overlap_4"], r.Values["local_overlap_16"])
	}
}

func TestClaim10Shape(t *testing.T) {
	r := Claim10Caching()
	if r.Values["sdc"] <= r.Values["lru"] {
		t.Fatalf("SDC hit ratio %v not above LRU %v", r.Values["sdc"], r.Values["lru"])
	}
	if r.Values["masked"] <= r.Values["unmasked"] {
		t.Fatalf("stale serving answered %v vs %v without cache", r.Values["masked"], r.Values["unmasked"])
	}
}

func TestClaim11Shape(t *testing.T) {
	r := Claim11Replication()
	if v := r.Values["avail_90_3"]; v < 0.998 || v > 1 {
		t.Fatalf("availability(0.9, 3) = %v, want 0.999", v)
	}
	for _, k := range []string{"pb_survived", "q_survived", "log_progress"} {
		if r.Values[k] != 1 {
			t.Fatalf("%s = %v, want 1", k, r.Values[k])
		}
	}
}

func TestClaim12Shape(t *testing.T) {
	r := Claim12MultiSiteRouting()
	if r.Values["geo_latency"] >= r.Values["rr_latency"] {
		t.Fatalf("geo latency %v not below round-robin %v", r.Values["geo_latency"], r.Values["rr_latency"])
	}
	if r.Values["load_p99"] >= r.Values["geo_p99"] {
		t.Fatalf("load-aware p99 %v not below geo %v", r.Values["load_p99"], r.Values["geo_p99"])
	}
	if r.Values["offloaded"] == 0 {
		t.Fatal("no queries offloaded at peak")
	}
}

func TestMergeTreeEqualsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var lists [][]rank.Result
	for p := 0; p < 16; p++ {
		var l []rank.Result
		for i := 0; i < 10; i++ {
			l = append(l, rank.Result{Doc: p*100 + i, Score: rng.Float64()})
		}
		rank.SortResults(l)
		lists = append(lists, l)
	}
	flat := rank.MergeResults(10, lists...)
	tree, maxMerged := mergeTree(10, 4, lists)
	if !reflect.DeepEqual(flat, tree) {
		t.Fatalf("tree merge %v, flat merge %v", tree, flat)
	}
	if flatCost := flatMergeCost(lists); maxMerged >= flatCost {
		t.Fatalf("hierarchy bottleneck %d not below flat %d", maxMerged, flatCost)
	}
}

func TestMergeTreeEdgeCases(t *testing.T) {
	if r, m := mergeTree(10, 4, nil); r != nil || m != 0 {
		t.Fatalf("empty merge = %v, %d", r, m)
	}
	single := [][]rank.Result{{{Doc: 1, Score: 2}}}
	r, _ := mergeTree(10, 4, single)
	if len(r) != 1 || r[0].Doc != 1 {
		t.Fatalf("single-list merge = %v", r)
	}
}

func TestClaim13Shape(t *testing.T) {
	r := Claim13Incremental()
	if r.Values["first_ms"] >= r.Values["last_ms"] {
		t.Fatal("first incremental batch not earlier than last")
	}
	if r.Values["converged"] < 0.999 {
		t.Fatalf("only %v of final incremental answers matched full evaluation", r.Values["converged"])
	}
}

func TestClaim14Shape(t *testing.T) {
	r := Claim14IndexBuild()
	if r.Values["all_equal"] != 1 {
		t.Fatal("construction strategies diverged")
	}
	if r.Values["docs"] == 0 {
		t.Fatal("no documents indexed")
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		ids[e.ID] = true
		if e.Title == "" {
			t.Errorf("registry entry %s has no title", e.ID)
		}
	}
	for _, want := range []string{"T1", "F1", "F2", "F5", "F6", "C1", "C2", "C3", "C4", "C5",
		"C6", "C7", "C8", "C9", "C10", "C11", "C12", "C13", "C14"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestResultRendering(t *testing.T) {
	var sb strings.Builder
	Table1Inventory().Render(&sb)
	for _, want := range []string{"===== T1", "Crawling", "Indexing", "Querying"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered result missing %q", want)
		}
	}
}

func TestClaim15Shape(t *testing.T) {
	r := Claim15OnlineMaintenance()
	// Wall-clock latencies are timings: filed as Values, dwrbench -check
	// would hold them to 1%.
	if _, gated := r.Values["small_p99"]; gated || r.Timings["small_p99"] <= 0 || r.Timings["large_p99"] <= 0 {
		t.Fatalf("query p99s must be Timings, not Values: values %v, timings %v", r.Values, r.Timings)
	}
	if r.Values["term_lock_servers"] <= 2 {
		t.Fatalf("term-partitioned update locks %v servers on average; the paper's amplification should be strong",
			r.Values["term_lock_servers"])
	}
	if r.Values["doc_lock_servers"] != 1 {
		t.Fatalf("document-partitioned update locks %v servers, want 1", r.Values["doc_lock_servers"])
	}
	if r.Values["small_swaps"] <= 0 || r.Values["large_swaps"] <= 0 {
		t.Fatal("no manifest swaps recorded; maintenance not exercised")
	}
	if r.Values["small_swaps"] <= r.Values["large_swaps"] {
		t.Fatalf("small buffer published %v swaps, large %v; smaller buffers must seal more often",
			r.Values["small_swaps"], r.Values["large_swaps"])
	}
}

func TestClaim16Shape(t *testing.T) {
	r := Claim16DriftReconfiguration()
	if r.Values["retrainings"] < 1 {
		t.Fatal("drift was never detected on a strongly drifting log")
	}
	if r.Values["adapt_week2"] <= r.Values["fixed_week2"] {
		t.Fatalf("adaptive recall %v not above fixed %v in the drifted week",
			r.Values["adapt_week2"], r.Values["fixed_week2"])
	}
}

func TestClaim17Shape(t *testing.T) {
	r := Claim17LanguageRouting()
	if r.Values["accuracy"] < 0.9 {
		t.Fatalf("language identification accuracy %v, want ≥0.9 on generated text", r.Values["accuracy"])
	}
	if r.Values["recall_correct"] < 0.95 {
		t.Fatalf("recall with correct identification %v, want ≈1 (languages partition the collection)", r.Values["recall_correct"])
	}
	if r.Values["recall_wrong"] > 0.2 {
		t.Fatalf("recall under misidentification %v; should collapse (wrong language partition)", r.Values["recall_wrong"])
	}
}

func TestClaim18Shape(t *testing.T) {
	r := Claim18GeoCrawling()
	if r.Values["affinity_wan_frac"] != 0 {
		t.Fatalf("region-affinity WAN fraction %v, want 0", r.Values["affinity_wan_frac"])
	}
	if r.Values["blind_wan_frac"] < 0.3 {
		t.Fatalf("region-blind WAN fraction %v; should be large with 3 regions", r.Values["blind_wan_frac"])
	}
	if r.Values["affinity_coverage"] < 0.85 {
		t.Fatalf("affinity coverage %v", r.Values["affinity_coverage"])
	}
}

func TestClaim19Shape(t *testing.T) {
	r := Claim19P2PArchitecture()
	if r.Values["cs_util_1000"] <= 1 {
		t.Fatalf("client/server at 1000 clients utilization %v; should be saturated", r.Values["cs_util_1000"])
	}
	if r.Values["p2p_util_1000"] >= 1 {
		t.Fatalf("P2P at 1000 peers utilization %v; capacity should grow with peers", r.Values["p2p_util_1000"])
	}
	if r.Values["fr_break"] < 0.9 {
		t.Fatalf("free-riding broke P2P at %v; with 20x headroom it should survive to ≥0.9", r.Values["fr_break"])
	}
	if r.Values["hops_1024"] > 10 {
		t.Fatalf("overlay hops at 1024 peers = %v, want ≤ log2(n)", r.Values["hops_1024"])
	}
}

func TestClaim20Shape(t *testing.T) {
	r := Claim20PhraseShipping()
	if r.Values["agreement"] != 1 {
		t.Fatalf("engines disagreed with central phrase evaluation: agreement %v", r.Values["agreement"])
	}
	if r.Values["raw_kb"] <= 10*r.Values["doc_kb"] {
		t.Fatalf("raw position shipping %v KB not ≫ document-partitioned %v KB", r.Values["raw_kb"], r.Values["doc_kb"])
	}
	if r.Values["comp_kb"] >= r.Values["raw_kb"] {
		t.Fatalf("compression did not reduce shipping: %v vs %v", r.Values["comp_kb"], r.Values["raw_kb"])
	}
}

func TestClaim21Shape(t *testing.T) {
	r := Claim21Personalization()
	if r.Values["versions"] != r.Values["clicks"] {
		t.Fatalf("profile versions %v != clicks %v: updates lost across failover", r.Values["versions"], r.Values["clicks"])
	}
	if r.Values["reordered"] <= 0 {
		t.Fatal("personalization never changed the top result")
	}
	if r.Values["tau_between"] >= 0.9999 {
		t.Fatal("two users with opposite habits got identical rankings")
	}
}

func TestClaim22Shape(t *testing.T) {
	r := Claim22FederatedVsOpen()
	if r.Values["open_p99"] <= r.Values["fed_p99"] {
		t.Fatalf("open-system p99 %v not above federated %v; self-interest must hurt",
			r.Values["open_p99"], r.Values["fed_p99"])
	}
	if r.Values["open_lat"] <= r.Values["fed_lat"] {
		t.Fatalf("open-system latency %v not above federated %v", r.Values["open_lat"], r.Values["fed_lat"])
	}
	if r.Values["offloaded"] == 0 {
		t.Fatal("no offloading occurred; peak not exercised")
	}
}

func TestClaim23Shape(t *testing.T) {
	r := Claim23FrontierPrioritization()
	if r.Values["prio_at25"] <= r.Values["fifo_at25"] {
		t.Fatalf("prioritized frontier captured %v of in-degree mass at 25%%, BFS %v; must front-load quality",
			r.Values["prio_at25"], r.Values["fifo_at25"])
	}
	if r.Values["prio_len"] < 0.9*r.Values["fifo_len"] {
		t.Fatalf("prioritized crawl coverage dropped: %v vs %v pages", r.Values["prio_len"], r.Values["fifo_len"])
	}
}
