package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// counts are the per-layer metrics that one client over a fixed script
// must reproduce exactly: work the engine counted, not time it took.
var counts = []string{
	"server.resp_bytes", "server.non_ok",
	"qproc.waves_per_query", "qproc.partitions_skipped_per_query", "qproc.servers_contacted_per_query",
	"qproc.live_postings_per_query", "cache.hit_ratio", "cache.stale_gen",
	"rank.postings_per_query", "rank.exhaustive_postings_per_query", "rank.prune_ratio",
	"index.bytes_decoded_per_query", "index.lists_per_query",
	"index.seals", "index.merges", "index.merged_docs", "index.write_amp", "index.segments_final",
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestQuickProfile runs every workload in both modes on the quick
// profile and holds the program to BENCHMARK.json: the same workloads,
// the same metric names and units in each mode, no failed op, and
// traced counts that repeat for a seed.
func TestQuickProfile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			out, err := measure(w, quickProfile, 1, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.name, traced, out.Failed, out.Attempted)
			}
			got := map[string]string{}
			for n, m := range out.Metrics {
				got[n] = m.Unit
				if !name.MatchString(n) {
					t.Errorf("metric name %q", n)
				}
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v emits %v\nBENCHMARK.json lists %v", w.name, traced, got, want[traced])
			}
			if !traced {
				for n, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s %s = %v; end-to-end metrics must never be 0", w.name, n, m.Value)
					}
				}
				continue
			}
			again, err := measure(w, quickProfile, 1, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range counts {
				if a, b := out.Metrics[n].Value, again.Metrics[n].Value; a != b {
					t.Errorf("%s %s: %v then %v with the same seed", w.name, n, a, b)
				}
			}
		}
	}
}

// TestSeedDrivesScript: the same seed gives the same ops, another seed
// other ops, over an unchanged pool.
func TestSeedDrivesScript(t *testing.T) {
	w := workloads[0]
	sys, err := setup(w, quickProfile)
	if err != nil {
		t.Fatal(err)
	}
	var scripts []*script
	for _, seed := range []int64{1, 1, 2} {
		sc, err := makeScript(sys, w, quickProfile, seed, 500)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, sc)
	}
	if !reflect.DeepEqual(scripts[0].ops, scripts[1].ops) {
		t.Error("seed 1 gave two different scripts")
	}
	if reflect.DeepEqual(scripts[0].ops, scripts[2].ops) {
		t.Error("seeds 1 and 2 gave the same script")
	}
	if !reflect.DeepEqual(scripts[0].pool, scripts[2].pool) {
		t.Error("the query pool moved with the seed")
	}
}
