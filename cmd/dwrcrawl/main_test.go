package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a value the crawler would quietly replace, or
// an agent to fail that does not exist, is a usage error naming the
// flag, rejected before anything is crawled or printed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-hosts", "0"}, "-hosts must be at least 1, got 0"},
		{[]string{"-agents", "0"}, "-agents must be at least 1, got 0"},
		{[]string{"-agents", "-2"}, "-agents must be at least 1, got -2"},
		{[]string{"-batch", "0"}, "-batch must be at least 1, got 0"},
		{[]string{"-seed-most-cited", "-1"}, "-seed-most-cited must be at least 0, got -1"},
		{[]string{"-recrawl-day", "-1"}, "-recrawl-day must be at least 0, got -1"},
		{[]string{"-agents", "4", "-fail-agent", "9"}, "-fail-agent must be -1 or an agent ID below 4, got 9"},
		{[]string{"-agents", "4", "-fail-agent", "4"}, "-fail-agent must be -1 or an agent ID below 4, got 4"},
		{[]string{"-fail-agent", "-2"}, "-fail-agent must be -1 or an agent ID below 4, got -2"},
		{[]string{"-assignment", "ring"}, `unknown assignment "ring"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() > 0 || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stdout %q, stderr %q; want no stdout and %q", tc.args, stdout.String(), stderr.String(), tc.stderr)
		}
	}
}

// TestRunCrawls: each assignment crawls a tiny Web and reports the agent
// count it ran with.
func TestRunCrawls(t *testing.T) {
	for _, tc := range []struct{ assignment, name string }{{"consistent", "consistent-hash"}, {"mod", "mod-hash"}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-hosts", "20", "-recrawl-day", "0", "-agents", "3", "-fail-agent", "2", "-assignment", tc.assignment}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
		if want := "with 3 agents (" + tc.name + ")"; !strings.Contains(stdout.String(), want) {
			t.Errorf("%v: stdout lacks %q:\n%s", args, want, stdout.String())
		}
	}
}
