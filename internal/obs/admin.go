package obs

import (
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Admin is the opt-in operational HTTP server the long-running binaries
// expose behind -admin: Prometheus metrics, a liveness probe, expvar, the
// trace store, and the full net/http/pprof surface.
//
//	GET  /metrics                 Prometheus text exposition (add ?format=json for JSON)
//	GET  /healthz                 "ok" + uptime
//	GET  /debug/traces            retained traces as JSON; ?id=<traceId> renders one as text
//	GET  /debug/slo               SLO statuses as JSON; ?format=text for an aligned render
//	GET  /debug/audit             recent audit records as JSON; ?id=<seq> renders one with evidence
//	POST /debug/profile/capture   synchronous on-demand profile capture (GET works too)
//	GET  /debug/vars              expvar JSON
//	GET  /debug/pprof/...         pprof index, profiles, symbol, trace
type Admin struct {
	ln      net.Listener
	srv     *http.Server
	started time.Time
}

// AdminOptions wires optional subsystems into the admin endpoint. Every
// field but Registry may be nil; the corresponding endpoints then serve
// explicit "not configured" payloads instead of 404ing, so probes stay
// stable across deployments.
type AdminOptions struct {
	Registry *Registry
	Traces   *TraceStore
	Logger   *slog.Logger
	SLO      *Engine
	Profiler *Profiler
	// Audit serves /debug/audit (typically audit.(*Ledger).AdminHandler);
	// nil serves an explicit "not configured" payload.
	Audit http.Handler
}

// StartAdmin binds addr (":0" picks a free port) and serves the admin
// endpoints for reg in a background goroutine. traces may be nil (the
// /debug/traces endpoint then reports an empty store); logger may be nil.
func StartAdmin(addr string, reg *Registry, traces *TraceStore, logger *slog.Logger) (*Admin, error) {
	return StartAdminOpts(addr, AdminOptions{Registry: reg, Traces: traces, Logger: logger})
}

// StartAdminOpts is StartAdmin plus the SLO and profiler surfaces.
func StartAdminOpts(addr string, opts AdminOptions) (*Admin, error) {
	reg, traces, logger := opts.Registry, opts.Traces, opts.Logger
	if logger == nil {
		logger = Nop()
	}
	a := &Admin{started: time.Now()}

	// Process-level gauges ride along on the shared registry so every
	// scrape sees runtime health next to the protocol metrics.
	reg.GaugeFunc("slicer_process_uptime_seconds",
		"Seconds since the admin endpoint started.",
		func() float64 { return time.Since(a.started).Seconds() })
	reg.GaugeFunc("slicer_process_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("slicer_process_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok uptime=%s\n", time.Since(a.started).Round(time.Millisecond))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("id"); id != "" {
			st, ok := traces.Get(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = st.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if traces == nil {
			fmt.Fprintln(w, `{"seen":0,"recent":[],"slowest":[]}`)
			return
		}
		_ = traces.WriteJSON(w)
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		if opts.SLO == nil {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"objectives":[]}`)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = opts.SLO.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = opts.SLO.WriteJSON(w)
	})
	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		if opts.Audit == nil {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"headSeq":0,"records":[],"note":"auditing not configured (start the server with -audit-dir)"}`)
			return
		}
		opts.Audit.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/profile/capture", func(w http.ResponseWriter, r *http.Request) {
		if opts.Profiler == nil {
			http.Error(w, "profiler not configured (start the server with -data-dir)", http.StatusNotFound)
			return
		}
		dir, err := opts.Profiler.CaptureNow("manual")
		if err != nil {
			status := http.StatusInternalServerError
			if err == ErrCaptureInFlight || err == ErrCaptureRateLimited {
				status = http.StatusTooManyRequests
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"dir\": %q}\n", dir)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	a.ln = ln
	a.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := a.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("admin server exited", "err", err)
		}
	}()
	logger.Info("admin endpoint serving", "addr", ln.Addr().String())
	return a, nil
}

// Addr reports the bound address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the admin server immediately.
func (a *Admin) Close() error { return a.srv.Close() }
