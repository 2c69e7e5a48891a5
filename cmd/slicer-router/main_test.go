package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// bin and cloudBin are the slicer-router and slicer-cloud binaries TestMain
// builds once; the router's boot test fronts one booted cloud.
var bin, cloudBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slicer-router-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin, cloudBin = filepath.Join(dir, "slicer-router"), filepath.Join(dir, "slicer-cloud")
	code := 1
	if out, err := exec.Command("go", "build", "-o", dir, ".", "../slicer-cloud").CombinedOutput(); err != nil {
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
	got := strings.Replace(stderr, "Usage of "+bin+":", "Usage of slicer-router:", 1)
	if code != 0 || got != string(want) {
		t.Fatalf("-h exits %d; output differs from testdata/help.golden:\n%s", code, got)
	}
}

// A bad flag value fails like an unknown flag: exit 2, a message on stderr,
// and nothing created on disk.
func TestBadFlagExits2BeforeTouchingDisk(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bogus"}, "flag provided but not defined"},
		{[]string{"-data-dir", "DIR"}, "-shards is required"},
		{[]string{"-shards", "s1", "-data-dir", "DIR"}, "bad shard"},
		{[]string{"-shards", "s1=127.0.0.1:1", "-fsync", "bogus"}, "bad fsync policy"},
		{[]string{"-shards", "s1=127.0.0.1:1", "-log-format", "xml", "-data-dir", "DIR"}, "unknown log format"},
		// Settings that became constants are unknown flags.
		{[]string{"-shards", "s1=127.0.0.1:1", "-data-dir", "DIR", "-trace-capacity", "8"}, "flag provided but not defined: -trace-capacity"},
		{[]string{"-shards", "s1=127.0.0.1:1", "-data-dir", "DIR", "-vnodes", "4"}, "flag provided but not defined: -vnodes"},
		{[]string{"-shards", "s1=127.0.0.1:1", "-data-dir", "DIR", "-ring-epochs", "2"}, "flag provided but not defined: -ring-epochs"},
		{[]string{"-shards", "s1=127.0.0.1:1", "-data-dir", "DIR", "-workers", "2"}, "flag provided but not defined: -workers"},
		{[]string{"-shards", "s1=127.0.0.1:1", "-data-dir", "DIR", "-batch", "4"}, "flag provided but not defined: -batch"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			args := []string{"-listen", "127.0.0.1:0"}
			for _, a := range tc.args {
				args = append(args, strings.Replace(a, "DIR", dir, 1))
			}
			code, stdout, stderr := runBin(t, args...)
			if code != 2 || !strings.Contains(stderr, tc.msg) {
				t.Fatalf("exit %d, want 2 with %q on stderr\nstdout: %s\nstderr: %s", code, tc.msg, stdout, stderr)
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s exists after a rejected flag (stat: %v)", dir, err)
			}
		})
	}
}

func TestRuntimeFailureExits1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if code, _, stderr := runBin(t, "-listen", ln.Addr().String(), "-shards", "s1=127.0.0.1:1"); code != 1 {
		t.Fatalf("listen on a taken port: exit %d, want 1\n%s", code, stderr)
	}
}

// server is a booted binary whose stdout has been read up to its serving line.
type server struct {
	cmd    *exec.Cmd
	out    *bufio.Scanner
	stderr bytes.Buffer
	stdout []string
	admin  string // host:port of the admin endpoint
	addr   string // host:port it serves on
}

// boot starts the binary at path on ephemeral ports and returns once it serves. It
// is killed 30 s after boot or when the test ends, whichever comes first.
func boot(t *testing.T, path string, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	s := &server{cmd: exec.CommandContext(ctx, path, append([]string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)...)}
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s.out = bufio.NewScanner(pipe)
	for s.out.Scan() {
		line := s.out.Text()
		s.stdout = append(s.stdout, line)
		if _, addr, ok := strings.Cut(line, "admin endpoint on http://"); ok {
			s.admin = strings.TrimSuffix(addr, "/metrics")
		}
		if _, addr, ok := strings.Cut(line, "serving on "); ok {
			s.addr = strings.TrimSuffix(strings.Fields(addr)[0], ",")
			return s
		}
	}
	_ = s.cmd.Wait()
	t.Fatalf("exited before serving\nstdout: %q\nstderr: %s", s.stdout, s.stderr.String())
	return nil
}

// stop sends SIGTERM and requires a clean exit.
func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for s.out.Scan() {
		s.stdout = append(s.stdout, s.out.Text())
	}
	if err := s.cmd.Wait(); err != nil || !strings.HasSuffix(s.stdout[len(s.stdout)-1], "shutting down") {
		t.Fatalf("SIGTERM: %v\nstdout: %q\nstderr: %s", err, s.stdout, s.stderr.String())
	}
}

// fetch requests path on the admin endpoint and requires want in the body.
func (s *server) fetch(t *testing.T, method, path, want string) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+s.admin+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
		t.Fatalf("%s %s: %d %v, want %q in\n%s", method, path, resp.StatusCode, err, want, body)
	}
}

// A router fronting one booted cloud answers /healthz, exits 0 on SIGTERM,
// and a reboot on the same directory recovers its routing table.
func TestBootServesAndRecovers(t *testing.T) {
	cloud := boot(t, cloudBin)
	defer cloud.stop(t)
	dir := t.TempDir()
	s := boot(t, bin, "-shards", "s1="+cloud.addr, "-data-dir", dir)
	s.fetch(t, "GET", "/healthz", "ok")
	s.stop(t)

	s = boot(t, bin, "-shards", "s1="+cloud.addr, "-data-dir", dir)
	if !strings.Contains(strings.Join(s.stdout, "\n"), "recovered from "+dir) {
		t.Fatalf("reboot on %s: no recovery line in %q", dir, s.stdout)
	}
	s.fetch(t, "GET", "/healthz", "ok")
	s.stop(t)
}
