// Command dwrbench regenerates the paper's tables and figures (and the
// quantitative claims embedded in its prose) as terminal reports, and
// runs the repo's measured scenarios.
//
// Usage:
//
//	dwrbench                  # run every experiment, in paper order
//	dwrbench -list            # experiment IDs and titles, scenario names and descriptions
//	dwrbench -exp F2          # run one experiment by ID
//	dwrbench -run pruning     # run one scenario and write BENCH_pruning.json under -benchdir
//	dwrbench -run pruning -config '{"docs":2000,"queries":150}' -benchdir ""
//	dwrbench -check           # re-run every scenario against its committed baseline
//
// A scenario is one registry entry (scenario.go): a default config and a
// function measuring it into a report of rows, each value filed as a
// counter, a ratio, a timing or an invariant. -config overlays a JSON
// object on the default config. -check re-runs each scenario from the
// config recorded in its BENCH_<scenario>.json under -benchdir and fails
// when a counter drifts more than 1%, a ratio more than -checktol, a
// key or row appears or disappears, or an invariant is false — so the
// perf trajectory is tracked across commits instead of eyeballed from
// captured terminal output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dwr/internal/experiments"
	"dwr/internal/qproc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit:
// 0 on success, 1 when a run or check fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and scenarios and exit")
	exp := fs.String("exp", "all", "experiment ID to run, or 'all'")
	scen := fs.String("run", "", "scenario to run (see -list); writes BENCH_<scenario>.json under -benchdir")
	config := fs.String("config", "", "JSON object overlaid on the -run scenario's default config, e.g. '{\"docs\":2000}'")
	check := fs.Bool("check", false, "re-run every scenario with a committed BENCH_<scenario>.json in -benchdir from the config recorded there: counters must match within 1%, ratios within -checktol, rows and keys exactly, and every invariant must hold (nonzero exit on violation)")
	checkTol := fs.Float64("checktol", 0.35, "allowed relative drift of wall-clock ratios for -check (counters are always held to 1%)")
	benchDir := fs.String("benchdir", "docs", "directory of the BENCH_<scenario>.json artifacts (empty = -run doesn't write)")
	workers := fs.Int("workers", 0, "engine fan-out width (0 = GOMAXPROCS, 1 = serial); every experiment reports identical numbers at any value")
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

	case *list:
		fmt.Fprintln(stdout, "experiments (-exp):")
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

	case *exp != "all":
		r := experiments.Run(*exp)
		if r == nil {
			return fail(2, fmt.Errorf("unknown experiment %q (use -list)", *exp))
		}
		fmt.Fprint(stdout, r.String())

	default:
		start := time.Now()
		for _, e := range experiments.Registry() {
			t0 := time.Now()
			r := e.Run()
			fmt.Fprint(stdout, r.String())
			fmt.Fprintf(stdout, "(%s took %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		}
		fmt.Fprintf(stdout, "all experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
