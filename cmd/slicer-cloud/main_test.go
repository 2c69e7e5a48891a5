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

// bin is the slicer-cloud binary TestMain builds once.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slicer-cloud-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "slicer-cloud")
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
	got := strings.Replace(stderr, "Usage of "+bin+":", "Usage of slicer-cloud:", 1)
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
		{[]string{"-fsync", "bogus"}, "bad fsync policy"},
		{[]string{"-fsync", "bogus", "-data-dir", "DIR"}, "bad fsync policy"},
		{[]string{"-log-level", "loud", "-data-dir", "DIR"}, "unknown log level"},
		{[]string{"-log-format", "xml", "-data-dir", "DIR"}, "unknown log format"},
		{[]string{"-slo", "garbage", "-data-dir", "DIR"}, "-slo"},
		// Settings that became constants are unknown flags.
		{[]string{"-data-dir", "DIR", "-trace-capacity", "8"}, "flag provided but not defined: -trace-capacity"},
		{[]string{"-data-dir", "DIR", "-trace-sample", "2"}, "flag provided but not defined: -trace-sample"},
		{[]string{"-data-dir", "DIR", "-label-cap", "5"}, "flag provided but not defined: -label-cap"},
		{[]string{"-data-dir", "DIR", "-profile-captures", "2"}, "flag provided but not defined: -profile-captures"},
		{[]string{"-data-dir", "DIR", "-profile-cpu", "100ms"}, "flag provided but not defined: -profile-cpu"},
		{[]string{"-data-dir", "DIR", "-snapshot-every", "2"}, "flag provided but not defined: -snapshot-every"},
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
	if code, _, stderr := runBin(t, "-listen", ln.Addr().String()); code != 1 {
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
}

// boot starts the binary on ephemeral ports and returns once it serves. It
// is killed 30 s after boot or when the test ends, whichever comes first.
func boot(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	s := &server{cmd: exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)...)}
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
		if strings.Contains(line, "serving on ") {
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

// The ops surface of a booted cloud: health, metrics, traces, SLOs and a
// forced profile capture landing under <data-dir>/profiles; then a clean
// SIGTERM and a reboot that recovers from the same directory.
func TestBootServesOpsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := boot(t, "-data-dir", dir, "-slo", "name=search,metric=rpc:search,target=250ms,good=0.99")
	s.fetch(t, "GET", "/healthz", "ok")
	s.fetch(t, "GET", "/metrics", "slicer_process_uptime_seconds")
	s.fetch(t, "GET", "/metrics?format=json", "slicer_rpc_connections_open")
	s.fetch(t, "GET", "/debug/traces", `"seen"`)
	s.fetch(t, "GET", "/debug/slo", `"search"`)
	s.fetch(t, "GET", "/debug/slo?format=text", "search")
	s.fetch(t, "POST", "/debug/profile/capture", `"dir"`)
	captures, err := filepath.Glob(filepath.Join(dir, "profiles", "capture-*"))
	if err != nil || len(captures) == 0 {
		t.Fatalf("no capture under %s/profiles (%v)", dir, err)
	}
	s.stop(t)

	s = boot(t, "-data-dir", dir)
	if !strings.Contains(strings.Join(s.stdout, "\n"), "recovered from "+dir) {
		t.Fatalf("reboot on %s: no recovery line in %q", dir, s.stdout)
	}
	s.fetch(t, "GET", "/healthz", "ok")
	s.stop(t)
}
