package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"dwr/internal/experiments"
)

// paperConfig selects the experiments to regenerate.
type paperConfig struct {
	// Only lists experiment IDs (see -list); empty runs all of them.
	// Rows come out in registry order whatever the order here.
	Only []string `json:"only"`
}

var paperScenario = define("paper",
	"the paper's table, figures and prose claims (T1, F1-F6, C1-C23): each experiment's tables and notes, its headline values as one row of counters",
	paperConfig{Only: []string{}}, measurePaper)

// measurePaper walks the experiment registry: each experiment prints its
// own tables and notes and becomes one row named by its ID. Values are
// seeded and replay exactly, so they are counters; what an experiment
// read off the wall clock, and how long it took, are timings.
func measurePaper(w io.Writer, c paperConfig) ([]row, error) {
	reg := experiments.Registry()
	for _, id := range c.Only {
		if !slices.ContainsFunc(reg, func(e experiments.Experiment) bool { return e.ID == id }) {
			return nil, fmt.Errorf("unknown experiment %q in only (use -list)", id)
		}
	}
	var rows []row
	for _, e := range reg {
		if len(c.Only) > 0 && !slices.Contains(c.Only, e.ID) {
			continue
		}
		t0 := time.Now()
		r := e.Run()
		timings := map[string]float64{"wall_ms": float64(time.Since(t0).Microseconds()) / 1e3}
		maps.Copy(timings, r.Timings)
		r.Render(w)
		fmt.Fprintln(w)
		rows = append(rows, row{Name: e.ID, Counters: r.Values, Timings: timings})
	}
	return rows, nil
}
