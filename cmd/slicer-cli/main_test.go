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

// bin is the slicer-cli binary TestMain builds once.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slicer-cli-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "slicer-cli")
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

// Every subcommand's -h prints its flags, exactly as pinned, and exits 0.
func TestHelpGolden(t *testing.T) {
	for _, sub := range [][]string{
		{"init"}, {"insert"}, {"search"}, {"status"}, {"probe"}, {"rebalance"},
		{"audit", "verify"}, {"audit", "tail"},
	} {
		name := strings.Join(sub, "-")
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runBin(t, append(sub, "-h")...)
			want, err := os.ReadFile("testdata/help-" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if code != 0 || stdout != "" || stderr != string(want) {
				t.Fatalf("exit %d; output differs from testdata/help-%s.golden:\n%s%s", code, name, stdout, stderr)
			}
		})
	}
}

// Asking for help exits 0, a command line that cannot run exits 2, and a
// failure while running exits 1.
func TestExitCodes(t *testing.T) {
	state := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args []string
		code int
		msg  string // on stdout for exit 0, else on stderr
	}{
		{[]string{"-h"}, 0, "usage: slicer-cli <init|"},
		{[]string{"help"}, 0, "usage: slicer-cli <init|"},
		{[]string{"audit", "-h"}, 0, "usage: slicer-cli audit"},
		{nil, 2, "usage: slicer-cli <init|"},
		{[]string{"bogus"}, 2, `unknown subcommand "bogus"`},
		{[]string{"search", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"search", "-state", state, "-op", "~"}, 2, `bad -op "~"`},
		{[]string{"search", "-state", state, "-range", "1-2"}, 2, "bad -range"},
		{[]string{"status", "-state", state, "-log-level", "loud"}, 2, "unknown log level"},
		{[]string{"init", "-state", state}, 2, "provide -random N or -values"},
		{[]string{"rebalance", "-state", state}, 2, "-to is required"},
		{[]string{"audit"}, 2, "usage: slicer-cli audit"},
		{[]string{"audit", "bogus"}, 2, `unknown audit subcommand "bogus"`},
		{[]string{"audit", "verify"}, 2, "-audit-dir is required"},
		{[]string{"search", "-state", state}, 1, "read state (did you run init?)"},
		{[]string{"status", "-state", state}, 1, "read state (did you run init?)"},
	} {
		// Name the case after the file, not its temporary directory, so the
		// subtest keeps one name from run to run.
		name := strings.ReplaceAll(strings.Join(tc.args, " "), state, filepath.Base(state))
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runBin(t, tc.args...)
			out := stderr
			if tc.code == 0 {
				out = stdout
			}
			if code != tc.code || !strings.Contains(out, tc.msg) {
				t.Fatalf("exit %d, want %d with %q\nstdout: %s\nstderr: %s", code, tc.code, tc.msg, stdout, stderr)
			}
		})
	}
	if _, err := os.Stat(state); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed command wrote %s (stat: %v)", state, err)
	}
}
