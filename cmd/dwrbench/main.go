// Command dwrbench runs the repo's measured scenarios — the paper's
// table, figures and prose claims among them — and gates each against
// its committed baseline.
//
// Usage:
//
//	dwrbench                  # same as -list
//	dwrbench -list            # experiment IDs and titles, scenario names and descriptions
//	dwrbench -run pruning     # run one scenario and write BENCH_pruning.json under -benchdir
//	dwrbench -run pruning -config '{"docs":2000,"queries":150}' -benchdir ""
//	dwrbench -run paper       # regenerate all 28 experiments (T1, F1-F6, C1-C23)
//	dwrbench -run paper -config '{"only":["F2"]}' -benchdir ""   # read one experiment's tables
//	dwrbench -check           # re-run every scenario against its committed baseline
//
// A scenario is one registry entry (scenario.go): a default config and a
// function measuring it into a report of rows, each value filed as a
// counter, a ratio, a timing or an invariant. -config overlays a JSON
// object on the default config. The paper scenario (paper.go) walks
// internal/experiments: each experiment prints its tables and notes and
// is one row, its headline values the row's counters. -check re-runs
// each scenario from the config recorded in its BENCH_<scenario>.json
// under -benchdir and fails when a counter drifts more than 1%, a ratio
// more than -checktol, a key or row appears or disappears, or an
// invariant is false — so every paper claim and the perf trajectory are
// held across commits by an artifact instead of eyeballed from captured
// terminal output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dwr/internal/experiments"
	"dwr/internal/qproc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit:
// 0 on success, 1 when a run or check fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and scenarios and exit (the default with nothing to run)")
	scen := fs.String("run", "", "scenario to run (see -list); writes BENCH_<scenario>.json under -benchdir")
	config := fs.String("config", "", "JSON object overlaid on the -run scenario's default config, e.g. '{\"docs\":2000}'")
	check := fs.Bool("check", false, "re-run every scenario with a committed BENCH_<scenario>.json in -benchdir from the config recorded there: counters must match within 1%, ratios within -checktol, rows and keys exactly, and every invariant must hold (nonzero exit on violation)")
	checkTol := fs.Float64("checktol", 0.35, "allowed relative drift of wall-clock ratios for -check (counters are always held to 1%)")
	benchDir := fs.String("benchdir", "docs", "directory of the BENCH_<scenario>.json artifacts (empty = -run doesn't write)")
	workers := fs.Int("workers", 0, "engine fan-out width (0 = GOMAXPROCS, 1 = serial); every scenario reports identical counters at any value")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "dwrbench: %v\n", err)
		return code
	}
	qproc.SetDefaultOptions(qproc.WithWorkers(*workers))

	switch {
	case *config != "" && *scen == "":
		return fail(2, errors.New("-config needs -run"))

	case *list, !*check && *scen == "": // nothing to run: list what could be
		fmt.Fprintln(stdout, `experiments (-run paper -config '{"only":["ID",...]}'):`)
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "scenarios (-run):")
		for _, s := range scenarios {
			fmt.Fprintf(stdout, "  %-10s %s\n", s.name, s.desc)
		}

	case *check:
		if err := runCheck(stdout, *benchDir, *checkTol); err != nil {
			return fail(1, err)
		}

	case *scen != "":
		s := findScenario(*scen)
		if s == nil {
			return fail(2, fmt.Errorf("unknown scenario %q (use -list)", *scen))
		}
		if err := runScenario(stdout, s, []byte(*config), *benchDir); err != nil {
			return fail(1, err)
		}
	}
	return 0
}
