package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dwr/internal/metrics"
)

// row is one measured configuration of a scenario. Which map a value
// sits in is the whole contract with -check: the shape says how it is
// gated, no per-scenario code does.
type row struct {
	Name string `json:"name"`
	// Counters are a pure function of the config — work counts and
	// virtual-time measurements. Held to workTol.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Ratios divide one wall-clock measurement by another taken in the
	// same run (the median of interleaved rounds: medianSpeedup), so they
	// survive a change of machine. Held to -checktol.
	Ratios map[string]float64 `json:"ratios,omitempty"`
	// Timings depend on the machine and the run (wall clock, allocator
	// activity). Reported, never gated.
	Timings map[string]float64 `json:"timings,omitempty"`
	// Invariants must be true in every run.
	Invariants map[string]bool `json:"invariants,omitempty"`
}

// report is the one document every scenario produces: what -run prints
// and writes as BENCH_<scenario>.json, and what -check compares. Config
// is the scenario's effective config, so the artifact alone says how to
// reproduce it.
type report struct {
	Scenario string          `json:"scenario"`
	Config   json.RawMessage `json:"config"`
	Rows     []row           `json:"rows"`
}

// scenario is one registry entry. run overlays a JSON object (empty =
// none) on the scenario's default config and measures it; -config and
// the config recorded in a committed artifact arrive the same way.
type scenario struct {
	name, desc string
	run        func(w io.Writer, overlay []byte) (report, error)
}

// scenarios is the registry, in the order -list and -check walk it.
var scenarios = []scenario{
	pruningScenario, thresholdScenario, freshScenario,
	federateScenario, serveScenario, faultsScenario, paperScenario,
}

// define binds a scenario's default config (a struct with JSON tags) to
// the function that measures it. Unknown config fields are an error:
// a typo in -config, or an artifact recorded by a different version of
// the scenario, must not silently run the defaults.
func define[C any](name, desc string, def C, measure func(io.Writer, C) ([]row, error)) scenario {
	return scenario{name: name, desc: desc, run: func(w io.Writer, overlay []byte) (report, error) {
		cfg := def
		if len(overlay) > 0 {
			dec := json.NewDecoder(bytes.NewReader(overlay))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cfg); err != nil {
				return report{}, fmt.Errorf("%s config: %w", name, err)
			}
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return report{}, err
		}
		fmt.Fprintf(w, "%s: %s\nconfig %s\n", name, desc, raw)
		rows, err := measure(w, cfg)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", name, err)
		}
		return report{Scenario: name, Config: raw, Rows: rows}, nil
	}}
}

// findScenario returns the registered scenario called name, or nil.
func findScenario(name string) *scenario {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// runScenario measures one scenario, prints its report, and writes it
// under dir ("" = don't). A report with a false invariant fails and is
// not written: diffed against itself a report can only fail on those.
func runScenario(w io.Writer, s *scenario, overlay []byte, dir string) error {
	rep, err := s.run(w, overlay)
	if err != nil {
		return err
	}
	rep.render(w)
	if bad := diff(rep, rep, 0); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintf(w, "FAIL %s\n", v)
		}
		return fmt.Errorf("%s: %d invariant(s) violated", s.name, len(bad))
	}
	if dir == "" {
		return nil
	}
	path, err := rep.write(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// render prints the report as one table: a line per value, a column per
// row, the gate each value is under beside its name. Rows need not share
// keys; a value a row does not report prints as "-".
func (r report) render(w io.Writer) {
	headers := []string{"", "gate"}
	for _, row := range r.Rows {
		headers = append(headers, row.Name)
	}
	t := metrics.NewTable("", headers...)
	addLines(t, "counter", r.Rows, func(x row) map[string]float64 { return x.Counters })
	addLines(t, "ratio", r.Rows, func(x row) map[string]float64 { return x.Ratios })
	addLines(t, "timing", r.Rows, func(x row) map[string]float64 { return x.Timings })
	addLines(t, "invariant", r.Rows, func(x row) map[string]bool { return x.Invariants })
	fmt.Fprintln(w)
	t.Render(w)
	fmt.Fprintln(w)
}

// addLines appends one table line per key any row holds in the map pick
// selects, in key order.
func addLines[V any](t *metrics.Table, gate string, rows []row, pick func(row) map[string]V) {
	var maps []map[string]V
	for _, r := range rows {
		maps = append(maps, pick(r))
	}
	for _, k := range unionKeys(maps...) {
		cells := []any{k, gate}
		for _, m := range maps {
			if v, ok := m[k]; ok {
				cells = append(cells, v)
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
}

// unionKeys returns the sorted union of the maps' keys.
func unionKeys[V any](maps ...map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range maps {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// artifactPath names a scenario's machine-readable report under dir.
func artifactPath(dir, scenario string) string {
	return filepath.Join(dir, "BENCH_"+scenario+".json")
}

// write stores the report as dir/BENCH_<scenario>.json, the artifact
// -check holds later runs against, and returns the path.
func (r report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := artifactPath(dir, r.Scenario)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
