package obs

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profiler defaults: a short CPU window keeps a breach-triggered capture
// cheap enough to run on a loaded server, the retention ring of
// profileMaxCaptures bundles bounds disk, and the minimum interval stops a
// flapping SLO from turning the profiler into its own load source.
const (
	profileMaxCaptures    = 4
	DefProfileCPUDuration = 1 * time.Second
	DefProfileMinInterval = 30 * time.Second
)

// Capture skip reasons.
var (
	ErrCaptureInFlight    = errors.New("obs: profile capture already in flight")
	ErrCaptureRateLimited = errors.New("obs: profile capture rate-limited")
)

// ProfilerOptions configures a Profiler.
type ProfilerOptions struct {
	// Dir is the capture root (required), typically <data-dir>/profiles.
	Dir string
	// CPUDuration is the CPU-profile window (default DefProfileCPUDuration).
	CPUDuration time.Duration
	// MinInterval rate-limits consecutive captures (default
	// DefProfileMinInterval; negative disables the limit).
	MinInterval time.Duration
	// Registry receives capture counters (may be nil).
	Registry *Registry
	// Logger records capture events (may be nil).
	Logger *slog.Logger
	// Clock drives rate-limiting (default time.Now; injectable for tests).
	Clock func() time.Time
	// maxCaptures overrides profileMaxCaptures so tests evict sooner.
	maxCaptures int
}

// Profiler captures bounded, rate-limited diagnostic bundles — a gzipped
// CPU profile, heap profile and goroutine dump plus a meta.json — into a
// directory ring. It is wired as an SLO engine OnBreach callback (capture
// the evidence while the regression is still happening) and behind the
// admin /debug/profile/capture endpoint for on-demand grabs.
type Profiler struct {
	dir      string
	max      int
	cpuDur   time.Duration
	minGap   time.Duration
	logger   *slog.Logger
	now      func() time.Time
	captures *CounterVec
	errs     *Counter
	skipped  *Counter

	mu       sync.Mutex
	busy     bool
	seq      int
	lastDone time.Time
	haveLast bool
}

// NewProfiler creates the capture directory and recovers the capture
// sequence from any bundles already on disk.
func NewProfiler(opts ProfilerOptions) (*Profiler, error) {
	if opts.Dir == "" {
		return nil, errors.New("obs: profiler needs a capture directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profiler dir: %w", err)
	}
	if opts.maxCaptures <= 0 {
		opts.maxCaptures = profileMaxCaptures
	}
	if opts.CPUDuration <= 0 {
		opts.CPUDuration = DefProfileCPUDuration
	}
	if opts.MinInterval == 0 {
		opts.MinInterval = DefProfileMinInterval
	}
	if opts.Logger == nil {
		opts.Logger = Nop()
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	p := &Profiler{
		dir:    opts.Dir,
		max:    opts.maxCaptures,
		cpuDur: opts.CPUDuration,
		minGap: opts.MinInterval,
		logger: opts.Logger,
		now:    opts.Clock,
		captures: opts.Registry.CounterVecOpts("slicer_obs_profile_captures_total",
			"Completed profile captures, by trigger reason.", []string{"reason"}, VecOpts{MaxCardinality: 8}),
		errs: opts.Registry.Counter("slicer_obs_profile_capture_errors_total",
			"Profile captures that failed mid-write."),
		skipped: opts.Registry.Counter("slicer_obs_profile_captures_skipped_total",
			"Profile captures skipped because one was in flight or rate-limited."),
	}
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("obs: profiler dir: %w", err)
	}
	for _, ent := range entries {
		var seq int
		var rest string
		if n, _ := fmt.Sscanf(ent.Name(), "capture-%d-%s", &seq, &rest); n >= 1 && seq > p.seq {
			p.seq = seq
		}
	}
	return p, nil
}

// Dir reports the capture root.
func (p *Profiler) Dir() string {
	if p == nil {
		return ""
	}
	return p.dir
}

// Trigger starts a capture in the background, dropping it silently (but
// counted) when one is running or rate-limited — the shape an SLO breach
// callback needs. No-op on a nil profiler.
func (p *Profiler) Trigger(reason string) {
	if p == nil {
		return
	}
	go func() {
		if _, err := p.CaptureNow(reason); err != nil &&
			!errors.Is(err, ErrCaptureInFlight) && !errors.Is(err, ErrCaptureRateLimited) {
			p.logger.Error("triggered profile capture failed", "reason", reason, "err", err)
		}
	}()
}

// CaptureNow synchronously captures one bundle, returning its directory.
// The bundle directory and every file in it are fsynced before return, so
// a SIGKILL immediately after a reported capture cannot lose it.
func (p *Profiler) CaptureNow(reason string) (string, error) {
	if p == nil {
		return "", errors.New("obs: profiler disabled")
	}
	reason = sanitizeFileToken(reason)
	p.mu.Lock()
	if p.busy {
		p.mu.Unlock()
		p.skipped.Inc()
		return "", ErrCaptureInFlight
	}
	if p.haveLast && p.minGap > 0 && p.now().Sub(p.lastDone) < p.minGap {
		p.mu.Unlock()
		p.skipped.Inc()
		return "", ErrCaptureRateLimited
	}
	p.busy = true
	p.seq++
	seq := p.seq
	p.mu.Unlock()

	dir := filepath.Join(p.dir, fmt.Sprintf("capture-%06d-%s", seq, reason))
	err := p.capture(dir, seq, reason)

	p.mu.Lock()
	p.busy = false
	p.lastDone = p.now()
	p.haveLast = true
	p.mu.Unlock()

	if err != nil {
		p.errs.Inc()
		p.logger.Error("profile capture failed", "dir", dir, "reason", reason, "err", err)
		return dir, err
	}
	p.captures.WithLabelValues(reason).Inc()
	p.logger.Info("profile capture complete", "dir", dir, "reason", reason, "seq", seq)
	p.retain()
	return dir, nil
}

// capture writes one bundle: goroutine + heap snapshots first (cheap, so
// they survive even if CPU profiling is unavailable), then a CPU profile
// over p.cpuDur, then meta.json, each gzip-framed (meta excepted), fsynced
// file-by-file with a final directory fsync.
func (p *Profiler) capture(dir string, seq int, reason string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := struct {
		Seq        int      `json:"seq"`
		Reason     string   `json:"reason"`
		CPUSeconds float64  `json:"cpuSeconds"`
		UnixNano   int64    `json:"unixNano"`
		Files      []string `json:"files"`
		CPUError   string   `json:"cpuError,omitempty"`
	}{Seq: seq, Reason: reason, CPUSeconds: p.cpuDur.Seconds(), UnixNano: p.now().UnixNano()}

	if err := writeGzipFile(filepath.Join(dir, "goroutine.txt.gz"), func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 1)
	}); err != nil {
		return fmt.Errorf("goroutine dump: %w", err)
	}
	meta.Files = append(meta.Files, "goroutine.txt.gz")

	if err := writeGzipFile(filepath.Join(dir, "heap.pprof.gz"), func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	}); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	meta.Files = append(meta.Files, "heap.pprof.gz")

	// CPU profiling is process-global; losing the race to e.g. an operator
	// curling /debug/pprof/profile is recorded in meta, not fatal.
	if err := writeGzipFile(filepath.Join(dir, "cpu.pprof.gz"), func(w io.Writer) error {
		if err := pprof.StartCPUProfile(w); err != nil {
			return err
		}
		time.Sleep(p.cpuDur)
		pprof.StopCPUProfile()
		return nil
	}); err != nil {
		meta.CPUError = err.Error()
		_ = os.Remove(filepath.Join(dir, "cpu.pprof.gz"))
	} else {
		meta.Files = append(meta.Files, "cpu.pprof.gz")
	}

	if err := writeFsynced(filepath.Join(dir, "meta.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	}); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	return syncDir(dir)
}

// retain deletes the oldest bundles beyond the retention cap. Bundle names
// embed a zero-padded sequence, so lexicographic order is capture order.
func (p *Profiler) retain() {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		p.logger.Error("profile retention scan failed", "err", err)
		return
	}
	var bundles []string
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "capture-") {
			bundles = append(bundles, ent.Name())
		}
	}
	sort.Strings(bundles)
	for len(bundles) > p.max {
		victim := filepath.Join(p.dir, bundles[0])
		if err := os.RemoveAll(victim); err != nil {
			p.logger.Error("profile retention delete failed", "dir", victim, "err", err)
			return
		}
		p.logger.Debug("profile capture evicted", "dir", victim)
		bundles = bundles[1:]
	}
}

// writeGzipFile streams fill through gzip into path, fsyncing before close.
func writeGzipFile(path string, fill func(io.Writer) error) error {
	return writeFsynced(path, func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		if err := fill(gz); err != nil {
			return err
		}
		return gz.Close()
	})
}

// writeFsynced writes fill's output to path and fsyncs the file.
func writeFsynced(path string, fill func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so entry creation survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeFileToken maps an arbitrary trigger reason onto a safe directory
// name component.
func sanitizeFileToken(s string) string {
	s = strings.ToLower(s)
	if len(s) > 32 {
		s = s[:32]
	}
	b := []byte(s)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-') {
			b[i] = '-'
		}
	}
	out := strings.Trim(string(b), "-")
	if out == "" {
		return "manual"
	}
	return out
}
