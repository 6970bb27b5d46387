// Command bench is the repo's wall-clock end-to-end benchmark: it
// builds the engine through the constructors cmd/dwrserve uses, serves
// it over loopback HTTP, and drives it closed-loop from nproc client
// goroutines over a seeded op script. See README.md.
//
//	bash bench/run.sh --workload static_top10 --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one measured value as BENCHMARK.json's consumers read it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output: exactly these keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and perLayerUnits name every metric the two modes emit;
// BENCHMARK.json lists the same names and units (bench_test.go holds
// the two together).
var endToEndUnits = map[string]string{
	"qps": "1/s", "p50_ms": "ms", "p95_ms": "ms", "heap_mb": "MB", "setup_s": "s",
}

var perLayerUnits = map[string]string{
	"http.rtt_us": "us", "http.self_us": "us", "http.stub_rtt_us": "us",
	"server.handler_us": "us", "server.self_us": "us", "server.resp_bytes": "B",
	"server.non_ok": "count", "textproc.tokenize_query_ns": "ns",
	"qproc.query_us": "us", "qproc.self_us_est": "us", "qproc.waves_per_query": "count",
	"qproc.partitions_skipped_per_query": "count", "qproc.servers_contacted_per_query": "count",
	"qproc.live_query_us": "us", "qproc.live_postings_per_query": "count",
	"cache.hit_ratio": "ratio", "cache.stale_gen": "count", "cache.key_ns": "ns",
	"cache.get_hit_ns": "ns", "cache.get_miss_ns": "ns", "cache.put_ns": "ns",
	"rank.postings_per_query": "count", "rank.exhaustive_postings_per_query": "count",
	"rank.prune_ratio": "ratio", "rank.eval_us": "us", "rank.eval_ns_per_posting": "ns",
	"rank.allocs_per_eval":          "count",
	"index.bytes_decoded_per_query": "B", "index.lists_per_query": "count",
	"index.decode_ns_per_posting": "ns", "index.skip_ns": "ns", "index.size_mb": "MB",
	"index.build_s": "s", "index.add_us_p50": "us", "index.add_us_mean": "us",
	"index.seals": "count", "index.merges": "count", "index.merged_docs": "count",
	"index.write_amp": "ratio", "index.segments_final": "count",
	"ingest.ms_per_doc": "ms", "textproc.parse_us_per_doc": "us",
	"crawler.crawl_s": "s", "crawler.pages_per_s": "1/s",
	"proc.allocs_per_query": "count", "proc.alloc_kb_per_query": "kB",
	"proc.gc_cycles": "count", "proc.gc_pause_ms": "ms", "proc.cpu_ms_per_query": "ms",
	"trace.overhead_ratio": "ratio", "machine.slowdown": "ratio",
}

// measure runs one workload in one mode and returns its outcome: the
// end-to-end metrics from the untraced 2-client pass (traced false), or
// the per-layer metrics from the 1-client traced pass.
func measure(w workload, p profile, seed int64, seconds int, traced bool, outDir string) (outcome, error) {
	setups := p.setups
	if traced {
		setups = 1 // set-up is an end-to-end metric; the traced pass reports none
	}
	var sys *system
	setupS := make([]float64, setups)
	for i := range setupS {
		sys = nil
		runtime.GC()
		around := probeMany(8)
		t0 := time.Now()
		var err error
		if sys, err = setup(w, p); err != nil {
			return outcome{}, err
		}
		d := time.Since(t0).Seconds()
		around = append(around, probeMany(8)...)
		fmt.Printf("%s setup_s_raw %v s\n", w.name, d)
		// Set-up has no slices to probe between; the speed before and
		// after it still removes the plateau the run sits on.
		setupS[i] = d / (median(around) / refNominalNs)
	}

	sc, err := makeScript(sys, w, p, seed, p.opsPerSec[w.name]*seconds)
	if err != nil {
		return outcome{}, err
	}
	r := &run{w: w, p: p, sys: sys, sc: sc}
	if !w.live {
		r.buildOracle()
	}
	front := newFrontend(sys.eng, sys.resolve)
	plain, err := listen(front.Handler())
	if err != nil {
		return outcome{}, err
	}
	defer plain.close()
	r.warmUp(plain.addr)

	values := make(map[string]float64)
	units := endToEndUnits
	if traced {
		units = perLayerUnits
		m, tr, err := r.tracedPass(plain.addr)
		if err != nil {
			return outcome{}, err
		}
		values = m
		if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
			return outcome{}, err
		}
	} else {
		values = r.timedPass(plain.addr)
		values["setup_s"] = median(setupS)
	}
	if w.live {
		r.settleLive(plain.addr)
	}
	if !traced {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		values["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	}

	out := outcome{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: make(map[string]metric)}
	out.Correct = out.Failed == 0
	for name, unit := range units {
		out.Metrics[name] = metric{values[name], unit}
	}
	if msg, ok := r.firstErr.Load().(string); ok {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %s\n", w.name, msg)
	}
	return out, nil
}

// report prints every metric as `workload metric value unit` and writes
// the result file that records the run's provenance beside it.
func report(w workload, out outcome, seed int64, seconds int, traced bool, outDir string) error {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %v %s\n", w.name, n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n", w.name, out.Attempted, w.name, out.Failed)

	mode := "e2e"
	if traced {
		mode = "layers"
	}
	doc := struct {
		Workload   string  `json:"workload"`
		Seed       int64   `json:"seed"`
		Seconds    int     `json:"seconds"`
		Traced     bool    `json:"traced"`
		Commit     string  `json:"commit"`
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		Outcome    outcome `json:"outcome"`
	}{w.name, seed, seconds, traced, os.Getenv("BENCH_COMMIT"), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), out}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result-"+w.name+"-"+mode+".json"), append(b, '\n'), 0o644)
}

func main() {
	name := flag.String("workload", "all", "static_top10 | static_top100 | cached_hot | live_ingest | all")
	seed := flag.Int64("seed", 1, "seeds the op script; the corpus and query pool are pinned")
	seconds := flag.Int("seconds", 8, "scales the script so the measured pass takes about this long")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced segments; 1: per-layer metrics from the traced pass")
	quick := flag.Bool("quick", false, "small corpus and short scripts (what go test runs)")
	outDir := flag.String("out", "out", "directory for result and span files")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	p := fullProfile
	if *quick {
		p = quickProfile
	}
	ran, failed := 0, false
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran++
		out, err := measure(w, p, *seed, *seconds, *trace == 1, *outDir)
		if err == nil {
			err = report(w, out, *seed, *seconds, *trace == 1, *outDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(out) // a map of floats and strings always marshals
		fmt.Println(string(line))
		failed = failed || !out.Correct
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}
