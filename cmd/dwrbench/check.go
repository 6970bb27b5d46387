package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strings"
)

// workTol is the allowed relative drift of counters between a fresh run
// and the committed artifact. Counters are seeded and replay exactly, so
// the band only absorbs float formatting; any real drift means the code
// changed behavior without the artifact being regenerated.
const workTol = 0.01

// runCheck re-runs every registered scenario that has a committed
// BENCH_<scenario>.json under dir, from the config recorded in it, and
// fails when the fresh report drifts from the committed one (see diff).
// This is the CI closing of the loop — a perf regression or a silent
// behavior change must update the artifact in the same commit.
func runCheck(w io.Writer, dir string, tol float64) error {
	var violations, names []string
	checked := 0
	for _, s := range scenarios {
		names = append(names, s.name)
		base, err := loadReport(dir, s.name)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "check %s: re-running the committed config\n", s.name)
		fresh, err := s.run(w, base.Config)
		if err != nil {
			return err
		}
		fresh.render(w)
		violations = append(violations, diff(base, fresh, tol)...)
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("no BENCH_<scenario>.json baseline under %q for any of: %s", dir, strings.Join(names, ", "))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(w, "FAIL %s\n", v)
		}
		return fmt.Errorf("%d drift violation(s) against committed baselines", len(violations))
	}
	fmt.Fprintf(w, "check ok: %d scenario(s) match their committed baselines (counters within %.0f%%, ratios within %.0f%%)\n",
		checked, 100*workTol, 100*tol)
	return nil
}

// loadReport parses dir/BENCH_<scenario>.json.
func loadReport(dir, scenario string) (report, error) {
	var rep report
	path := artifactPath(dir, scenario)
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// drifted reports whether fresh has moved more than tol relative to
// base. A zero base only matches a zero fresh value.
func drifted(base, fresh, tol float64) bool {
	if base == 0 {
		return fresh != 0
	}
	return math.Abs(fresh-base)/math.Abs(base) > tol
}

// diff lists every way fresh departs from base: rows must match by
// position and name, each of a row's four maps must hold the same keys,
// counters must stay within workTol, ratios within tol, and every
// invariant must be true. Timing values are never compared.
func diff(base, fresh report, tol float64) []string {
	if len(base.Rows) != len(fresh.Rows) {
		return []string{fmt.Sprintf("%s: %d baseline rows vs %d fresh rows", base.Scenario, len(base.Rows), len(fresh.Rows))}
	}
	within := func(tol float64) func(b, f float64) bool {
		return func(b, f float64) bool { return !drifted(b, f, tol) }
	}
	var out []string
	for i, b := range base.Rows {
		f := fresh.Rows[i]
		id := base.Scenario + " " + b.Name
		if b.Name != f.Name {
			out = append(out, fmt.Sprintf("%s: fresh row %d is %q", id, i, f.Name))
			continue
		}
		out = append(out, compare(id, "counter", b.Counters, f.Counters, within(workTol),
			fmt.Sprintf("counters must replay within %.0f%%", 100*workTol))...)
		out = append(out, compare(id, "ratio", b.Ratios, f.Ratios, within(tol),
			fmt.Sprintf("tol %.0f%%", 100*tol))...)
		out = append(out, compare(id, "timing", b.Timings, f.Timings,
			func(_, _ float64) bool { return true }, "")...)
		out = append(out, compare(id, "invariant", b.Invariants, f.Invariants,
			func(_, f bool) bool { return f }, "must be true")...)
	}
	return out
}

// compare holds one of a row's maps against the baseline's: a key on one
// side only is a violation, and so is a pair of values ok rejects.
func compare[V any](id, kind string, base, fresh map[string]V, ok func(base, fresh V) bool, rule string) []string {
	var out []string
	for _, k := range unionKeys(base, fresh) {
		b, inBase := base[k]
		f, inFresh := fresh[k]
		switch {
		case !inFresh:
			out = append(out, fmt.Sprintf("%s: %s %s is in the baseline only", id, kind, k))
		case !inBase:
			out = append(out, fmt.Sprintf("%s: %s %s is in the fresh run only", id, kind, k))
		case !ok(b, f):
			out = append(out, fmt.Sprintf("%s: %s %s = %v, baseline %v (%s)", id, kind, k, f, b, rule))
		}
	}
	return out
}
