package dwr

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRunAndRepeat executes every program under examples/: each
// must build, exit 0, print something, and print the same thing twice —
// they are seeded walkthroughs, so a run-to-run difference is a
// determinism leak. loadbalance's "broker wall-clock" line reports
// measured time and is the one line exempt.
func TestExamplesRunAndRepeat(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("examples/ is empty")
	}
	bin := t.TempDir()
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if out, err := exec.Command("go", "build", "-o", exe, "./examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			run := func() string {
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(exe)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstderr: %s", err, stderr.String())
				}
				var kept []string
				for _, line := range strings.Split(stdout.String(), "\n") {
					if !strings.HasPrefix(line, "broker wall-clock") {
						kept = append(kept, line)
					}
				}
				return strings.Join(kept, "\n")
			}
			first, second := run(), run()
			if strings.TrimSpace(first) == "" {
				t.Fatal("no output")
			}
			if first != second {
				t.Fatalf("two runs printed different output:\n--- first\n%s\n--- second\n%s", first, second)
			}
		})
	}
}
