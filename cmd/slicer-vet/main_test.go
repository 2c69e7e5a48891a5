package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// bin is the slicer-vet binary TestMain builds once.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slicer-vet-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "slicer-vet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin runs the binary in dir to completion (killed after 20 s) and returns its
// exit code and output.
func runBin(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errOut.String()
}

func TestHelpGolden(t *testing.T) {
	code, _, stderr := runBin(t, ".", "-h")
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || stderr != string(want) {
		t.Fatalf("-h exits %d; output differs from testdata/help.golden:\n%s", code, stderr)
	}
}

// slicer-vet exits 0 on a clean package, 1 on a finding and 2 when a
// package does not load.
func TestExitCodes(t *testing.T) {
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":           "module vettest\n\ngo 1.22\n",
		"clean/clean.go":   "package clean\n\nfunc Add(a, b int) int { return a + b }\n",
		"finding/drop.go":  "package finding\n\nimport \"os\"\n\nfunc Drop() { os.Remove(\"x\") }\n",
		"broken/broken.go": "package broken\n\nfunc F() int { return \"x\" }\n",
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		pkg  string
		code int
		msg  string
	}{
		{"./clean", 0, ""},
		{"./finding", 1, "[errdrop]"},
		{"./broken", 2, "typecheck vettest/broken"},
		{"./missing", 2, "no such file or directory"},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			code, stdout, stderr := runBin(t, mod, tc.pkg)
			if code != tc.code || !strings.Contains(stdout+stderr, tc.msg) {
				t.Fatalf("exit %d, want %d with %q\nstdout: %s\nstderr: %s", code, tc.code, tc.msg, stdout, stderr)
			}
		})
	}
}
