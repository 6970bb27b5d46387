package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: the defaults print the paper's plan; a non-positive flag is a
// usage error naming the flag, with nothing printed on stdout.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string // a substring stdout must hold
		stderr string // a substring stderr must hold
	}{
		{args: nil, code: 0, stdout: "front-end capacity bound (q/s)  3000"},
		{args: []string{"-threads", "0"}, code: 2, stderr: "-threads must be a positive number, got 0"},
		{args: []string{"-service", "0"}, code: 2, stderr: "-service must be a positive number, got 0"},
		{args: []string{"-cluster-qps", "0"}, code: 2, stderr: "-cluster-qps must be a positive number, got 0"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stdout %q, stderr %q; want %q and %q", tc.args, stdout.String(), stderr.String(), tc.stdout, tc.stderr)
		}
		if code != 0 && stdout.Len() > 0 {
			t.Errorf("%v: rejected, but printed %q", tc.args, stdout.String())
		}
		if out := stdout.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%v: the plan holds a non-number:\n%s", tc.args, out)
		}
	}
}
