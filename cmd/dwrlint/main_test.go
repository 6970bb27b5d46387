package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwr/internal/lint"
)

// chdirModuleRoot moves the test into the module root so CLI patterns
// and reported paths match what a developer (and CI) sees.
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// runCLI invokes the CLI body and captures its streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCLICleanDirExitsZero(t *testing.T) {
	chdirModuleRoot(t)
	code, stdout, stderr := runCLI(t, "internal/lint/testdata/taint/clockutil")
	if code != 0 {
		t.Fatalf("exit %d on clean dir; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings: %q", stdout)
	}
}

func TestCLIViolationsExitOne(t *testing.T) {
	chdirModuleRoot(t)
	code, stdout, stderr := runCLI(t, "internal/lint/testdata/dwrserve/main.go")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout=%q", code, stdout)
	}
	if !strings.Contains(stdout, "internal/lint/testdata/dwrserve/main.go:") ||
		!strings.Contains(stdout, "[deadline]") {
		t.Errorf("finding line malformed: %q", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("summary missing from stderr: %q", stderr)
	}
}

func TestCLIRecursivePattern(t *testing.T) {
	chdirModuleRoot(t)
	code, stdout, _ := runCLI(t, "internal/lint/testdata/server/...")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout=%q", code, stdout)
	}
	if n := strings.Count(stdout, "\n"); n != 3 {
		t.Errorf("server/... printed %d findings, want 3: %q", n, stdout)
	}
}

func TestCLIJSONViolations(t *testing.T) {
	chdirModuleRoot(t)
	code, stdout, _ := runCLI(t, "-json", "internal/lint/testdata/dwrserve/main.go")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(findings) != 1 || findings[0].Rule != "deadline" || findings[0].Line == 0 {
		t.Errorf("unexpected JSON findings: %+v", findings)
	}
}

func TestCLIJSONCleanIsEmptyArray(t *testing.T) {
	chdirModuleRoot(t)
	code, stdout, _ := runCLI(t, "-json", "internal/lint/testdata/taint/clockutil")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

func TestCLIFixlist(t *testing.T) {
	chdirModuleRoot(t)
	code, stdout, _ := runCLI(t, "-fixlist", "internal/lint/testdata/simweb")
	if code != 0 {
		t.Fatalf("-fixlist exit %d, want 0", code)
	}
	if n := strings.Count(stdout, "allowed:"); n != 2 {
		t.Errorf("fixlist printed %d sites, want 2: %q", n, stdout)
	}
	if !strings.Contains(stdout, "reporting-only timestamp") {
		t.Errorf("justification text lost: %q", stdout)
	}
}

func TestCLIFixgate(t *testing.T) {
	chdirModuleRoot(t)
	// At the gate: ok.
	code, stdout, _ := runCLI(t, "-fixgate", "2", "internal/lint/testdata/simweb")
	if code != 0 || !strings.Contains(stdout, "exemption surface ok (2 of 2") {
		t.Fatalf("fixgate at limit: exit %d, stdout=%q", code, stdout)
	}
	// Over the gate: the surface grew without raising the gate.
	code, _, stderr := runCLI(t, "-fixgate", "1", "internal/lint/testdata/simweb")
	if code != 1 {
		t.Fatalf("fixgate breach exit %d, want 1; stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "grew to 2 sites (gate is 1)") {
		t.Errorf("breach message malformed: %q", stderr)
	}
}

func TestCLIBadPatternExitsTwo(t *testing.T) {
	chdirModuleRoot(t)
	code, _, stderr := runCLI(t, "internal/lint/testdata/no-such-dir")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "dwrlint:") {
		t.Errorf("error not reported: %q", stderr)
	}
}

// TestCLIUnparseableFileExitsTwo: a file the parser rejects is an input
// error, not a clean run, and the message names the file.
func TestCLIUnparseableFileExitsTwo(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\n\nfunc broken( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, dir)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stdout=%q stderr=%q", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "broken.go") {
		t.Errorf("error does not name the file: %q", stderr)
	}
}
