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

// bin is the slicer-bench binary TestMain builds once.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slicer-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "slicer-bench")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin runs the binary to completion (killed after 20 s) and returns its
// exit code and output.
func runBin(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
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
	code, _, stderr := runBin(t, "-h")
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Replace(stderr, "Usage of "+bin+":", "Usage of slicer-bench:", 1)
	if code != 0 || got != string(want) {
		t.Fatalf("-h exits %d; output differs from testdata/help.golden:\n%s", code, got)
	}
}

func TestListExits0(t *testing.T) {
	code, stdout, stderr := runBin(t, "-list")
	if lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n"); code != 0 || len(lines) != 26 {
		t.Fatalf("-list: exit %d with %d lines, want 0 with 26 experiment IDs\nstdout: %s\nstderr: %s", code, len(lines), stdout, stderr)
	}
}

// An unknown flag exits 2; a bad -scale, -format or -exp value exits 1
// with a message on stderr before any experiment prints.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-scale", "bogus"}, 1, `unknown scale "bogus"`},
		{[]string{"-format", "bogus"}, 1, `unknown -format "bogus"`},
		{[]string{"-exp", "bogus"}, 1, `unknown experiment "bogus"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runBin(t, tc.args...)
			if code != tc.code || !strings.Contains(stderr, tc.msg) || stdout != "" {
				t.Fatalf("exit %d, want %d with %q on stderr and nothing on stdout\nstdout: %s\nstderr: %s", code, tc.code, tc.msg, stdout, stderr)
			}
		})
	}
}
