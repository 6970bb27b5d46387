// Command dwrlint runs the repository's static-analysis suite
// (internal/lint): one type-aware, interprocedural pass over the module
// that enforces the determinism, accounting, caching, and
// deadline-discipline invariants the reproduction's experiments depend
// on.
//
// Usage:
//
//	go run ./cmd/dwrlint ./...                 # lint the module
//	go run ./cmd/dwrlint -json ./...           # machine-readable findings
//	go run ./cmd/dwrlint -fixlist ./...        # audit the exemption surface
//	go run ./cmd/dwrlint -fixgate 5 ./...      # CI: fail if the surface grows
//	go run ./cmd/dwrlint internal/lint/testdata/simweb  # lint one directory
//
// Findings print as "file:line: [rule] message" and the process exits 1
// if any non-exempted finding remains, 2 if a pattern does not resolve
// or a selected file does not parse. -fixlist instead prints every
// //dwrlint:allow / //dwrlint:file-allow exempted site with its
// justification and exits zero: it is the reviewers' one-command audit
// of everything the suite has been told to ignore. -fixgate N is the CI
// form of that audit: it fails when the exemption surface exceeds N
// sites or any exemption lacks a written justification, so new allows
// must both be justified and consciously raise the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dwr/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body; it returns the process exit code
// (0 clean, 1 findings or gate breach, 2 usage/IO error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	fixlist := fs.Bool("fixlist", false, "print allowlisted sites with their justifications and exit 0")
	fixgate := fs.Int("fixgate", -1, "fail unless every exemption is justified and the exemption surface has at most N sites")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: dwrlint [-json] [-fixlist] [-fixgate N] [pattern ...]\n\npatterns: dir/... (recursive), dir, or file.go; default ./...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	findings, err := lint.LintPatterns(root, patterns)
	if err != nil {
		return fatal(stderr, err)
	}

	if *fixgate >= 0 {
		return gateFixlist(stdout, stderr, lint.Fixlist(findings), *fixgate)
	}

	if *fixlist {
		allowed := lint.Fixlist(findings)
		if *jsonOut {
			return emitJSON(stdout, stderr, allowed)
		}
		if len(allowed) == 0 {
			fmt.Fprintln(stdout, "no allowlisted sites")
			return 0
		}
		for _, f := range allowed {
			fmt.Fprintf(stdout, "%s:%d: [%s] allowed: %s\n", f.File, f.Line, f.Rule, f.Justification)
		}
		return 0
	}

	violations := lint.Violations(findings)
	if *jsonOut {
		if code := emitJSON(stdout, stderr, violations); code != 0 {
			return code
		}
	} else {
		for _, f := range violations {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(violations) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "dwrlint: %d finding(s)\n", len(violations))
		}
		return 1
	}
	return 0
}

// gateFixlist enforces the exemption-surface budget: at most max
// allowed sites, each carrying real justification text. Growing the
// surface means raising the gate in CI alongside the new directive —
// a conscious, reviewable act rather than silent drift.
func gateFixlist(stdout, stderr io.Writer, allowed []lint.Finding, max int) int {
	bad := 0
	for _, f := range allowed {
		if f.Justification == "" || strings.HasPrefix(f.Justification, "(") {
			fmt.Fprintf(stderr, "dwrlint: %s:%d: [%s] exemption without a written justification\n", f.File, f.Line, f.Rule)
			bad++
		}
	}
	if len(allowed) > max {
		fmt.Fprintf(stderr, "dwrlint: exemption surface grew to %d sites (gate is %d); justify the new allows and raise -fixgate deliberately\n",
			len(allowed), max)
		for _, f := range allowed {
			fmt.Fprintf(stderr, "  %s:%d: [%s] %s\n", f.File, f.Line, f.Rule, f.Justification)
		}
		return 1
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "dwrlint: exemption surface ok (%d of %d sites, all justified)\n", len(allowed), max)
	return 0
}

// emitJSON writes findings as a JSON array (never null, so consumers
// can index unconditionally).
func emitJSON(stdout, stderr io.Writer, fs []lint.Finding) int {
	if fs == nil {
		fs = []lint.Finding{}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fs); err != nil {
		return fatal(stderr, err)
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dwrlint:", err)
	return 2
}
