package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: a valid query prints ranked results; an out-of-range flag is a
// usage error naming the flag, rejected before the engine is built and
// with nothing printed on stdout.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string // a substring stdout must hold
		stderr string // a substring stderr must hold
	}{
		{args: []string{"-hosts", "10", "-partitions", "2", "h0000", "example"}, code: 0,
			stdout: " 1. http://h0000.example/p0.html", stderr: "building engine (10 hosts, 2 partitions"},
		{args: []string{"-partitions", "0", "q"}, code: 2, stderr: "-partitions must be at least 1, got 0"},
		{args: []string{"-partitions", "-3", "q"}, code: 2, stderr: "-partitions must be at least 1, got -3"},
		{args: []string{"-hosts", "0", "q"}, code: 2, stderr: "-hosts must be at least 1, got 0"},
		{args: []string{"-k", "0", "q"}, code: 2, stderr: "-k must be at least 1, got 0"},
		{args: []string{"-k", "-1", "q"}, code: 2, stderr: "-k must be at least 1, got -1"},
		{args: []string{"-select", "-1", "q"}, code: 2, stderr: "-select must be at least 0, got -1"},
		{args: []string{"-cachecap", "-1", "q"}, code: 2, stderr: "-cachecap must be at least 0, got -1"},
		{args: []string{"-strategy", "none", "q"}, code: 2, stderr: `unknown strategy "none"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader(""), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stdout %q, stderr %q; want %q and %q", tc.args, stdout.String(), stderr.String(), tc.stdout, tc.stderr)
		}
		if code != 0 && (stdout.Len() > 0 || strings.Contains(stderr.String(), "building engine")) {
			t.Errorf("%v: rejected after building or printing: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
}
