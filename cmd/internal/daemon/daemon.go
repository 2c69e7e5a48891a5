// Package daemon is how a Slicer server boots: the flags slicer-cloud,
// slicer-chain and slicer-router share, their validation, and the ops
// wiring (logger, registry, transport settings, audit ledger, SLO engine,
// profiler, admin endpoint, durability) in one fixed order.
package daemon

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"slicer/internal/audit"
	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// Node is what every server hands the preamble: *wire.CloudServer,
// *wire.ChainServer and *shard.Router.
type Node interface {
	Server() *wire.Server
	Traces() *obs.TraceStore
	Close() error
}

// Server is a Node that journals and audits: *wire.CloudServer and
// *wire.ChainServer.
type Server interface {
	Node
	SetObservability(*obs.Registry, *slog.Logger)
	EnableAudit(*audit.Ledger)
	EnableDurability(wire.DurabilityOptions) (*wire.RecoveryStats, error)
}

// Daemon holds a server's shared flag values and what they built. Parse
// sets Logger, Registry and the fsync policy; StartJournaled sets SLO when
// -slo is given.
type Daemon struct {
	Listen, DataDir string
	Logger          *slog.Logger
	Registry        *obs.Registry
	Fsync           durable.Policy
	FsyncInterval   time.Duration
	SLO             *obs.Engine

	name, fsync, admin, logLevel, logFormat string
	idle                                    time.Duration
	auditDir, slo                           string
	aliases                                 map[string]string
	objectives                              []obs.Objective

	stop    chan os.Signal
	node    Node
	adm     *obs.Admin
	stopSLO func()
	led     *audit.Ledger
}

// New registers the flags every server takes: -listen (default listen),
// -data-dir (help dataDirHelp), -fsync, -admin, -log-level, -log-format and
// -idle-timeout. name prefixes the daemon's messages.
func New(name, listen, dataDirHelp string) *Daemon {
	d := &Daemon{name: name}
	flag.StringVar(&d.Listen, "listen", listen, "address to listen on")
	flag.StringVar(&d.DataDir, "data-dir", "", dataDirHelp)
	flag.StringVar(&d.fsync, "fsync", "always", "WAL durability: always, never, or a flush interval like 100ms")
	flag.StringVar(&d.admin, "admin", "", "optional admin HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof")
	flag.StringVar(&d.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	flag.StringVar(&d.logFormat, "log-format", "text", "log format: text or json")
	flag.DurationVar(&d.idle, "idle-timeout", wire.DefaultIdleTimeout, "drop connections idle longer than this; 0 disables")
	return d
}

// Journaled registers the flags of a server that journals and audits:
// -audit-dir and -slo (help sloHelp). Objectives may name the metrics behind
// aliases and the audit ledger's aliases.
func (d *Daemon) Journaled(sloHelp string, aliases map[string]string) {
	d.aliases = aliases
	maps.Copy(d.aliases, audit.SLOAliases())
	flag.StringVar(&d.auditDir, "audit-dir", "", `tamper-evident audit ledger directory (default <data-dir>/audit when -data-dir is set; "none" disables)`)
	flag.StringVar(&d.slo, "slo", "", sloHelp)
}

// Parse parses the command line and checks every value, the shared ones here
// and the binary's own through check (nil: none), before anything touches
// disk or the network: a bad value exits 2 with a message on stderr, as an
// unknown flag does. From here on SIGINT and SIGTERM wait for Wait.
func (d *Daemon) Parse(check func() error) {
	flag.Parse()
	if err := d.validate(check); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", d.name, err)
		os.Exit(2)
	}
	d.Registry = obs.NewRegistry()
	d.stop = make(chan os.Signal, 1)
	signal.Notify(d.stop, os.Interrupt, syscall.SIGTERM)
}

func (d *Daemon) validate(check func() error) (err error) {
	if d.Logger, err = obs.NewLogger(os.Stderr, d.logLevel, d.logFormat); err != nil {
		return err
	}
	if d.Fsync, d.FsyncInterval, err = durable.ParsePolicy(d.fsync); err != nil {
		return err
	}
	if d.slo != "" {
		if d.objectives, err = obs.ParseObjectives(d.slo, d.aliases); err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
	}
	if check != nil {
		return check()
	}
	return nil
}

// Start applies the transport flags to n and starts the admin endpoint.
// From here on Close closes n.
func (d *Daemon) Start(n Node) error {
	d.node = n
	n.Server().SetLogger(d.Logger)
	return d.serve(obs.AdminOptions{})
}

// StartJournaled wires s in the order every journaling server boots:
// metrics and transport, the audit ledger, the SLO engine, the profiler, the
// admin endpoint and last durability, whose recovery it returns (nil without
// -data-dir). From here on Close closes s and what was opened for it, also
// when StartJournaled fails.
func (d *Daemon) StartJournaled(s Server) (*wire.RecoveryStats, error) {
	d.node = s
	s.SetObservability(d.Registry, d.Logger)
	var opts obs.AdminOptions

	// The audit ledger opens before the SLO engine and admin endpoint so the
	// integrity series, the /debug/audit handler and the server hooks all see
	// the same ledger. It defaults on next to -data-dir: a server durable
	// enough to recover state is durable enough to account for it.
	ledgerDir := d.auditDir
	if ledgerDir == "" && d.DataDir != "" {
		ledgerDir = filepath.Join(d.DataDir, "audit")
	}
	if ledgerDir != "" && ledgerDir != "none" {
		led, err := audit.Open(audit.Options{
			Dir:           ledgerDir,
			Fsync:         d.Fsync,
			FsyncInterval: d.FsyncInterval,
			Registry:      d.Registry,
			Logger:        d.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("audit ledger: %w", err)
		}
		d.led = led
		s.EnableAudit(led)
		opts.Audit = led.AdminHandler()
		seq, hash := led.Head()
		fmt.Printf("audit ledger %s: chain verified, head #%d %s\n", ledgerDir, seq, hash)
	}

	if d.slo != "" {
		d.SLO = obs.NewEngine(d.Registry, d.objectives, obs.EngineOptions{Logger: d.Logger})
		d.stopSLO = d.SLO.Run(0)
		opts.SLO = d.SLO
	}
	if d.DataDir != "" {
		prof, err := obs.NewProfiler(obs.ProfilerOptions{
			Dir:      filepath.Join(d.DataDir, "profiles"),
			Registry: d.Registry,
			Logger:   d.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("profiler: %w", err)
		}
		if d.SLO != nil {
			d.SLO.OnBreach(func(st obs.SLOStatus) { prof.Trigger("slo-" + st.Name) })
		}
		opts.Profiler = prof
	} else if d.SLO != nil {
		d.Logger.Warn("continuous profiler disabled: -slo set without -data-dir, breaches will not capture profiles")
	}

	if err := d.serve(opts); err != nil {
		return nil, err
	}
	if d.DataDir == "" {
		return nil, nil
	}
	stats, err := s.EnableDurability(wire.DurabilityOptions{
		Dir:           d.DataDir,
		Fsync:         d.Fsync,
		FsyncInterval: d.FsyncInterval,
		Registry:      d.Registry,
		Logger:        d.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	return stats, nil
}

// serve applies the transport flags to the node and starts the admin
// endpoint on opts plus the registry, trace store and logger.
func (d *Daemon) serve(opts obs.AdminOptions) error {
	d.node.Server().SetIdleTimeout(d.idle)
	if d.admin == "" {
		return nil
	}
	opts.Registry, opts.Traces, opts.Logger = d.Registry, d.node.Traces(), d.Logger
	adm, err := obs.StartAdminOpts(d.admin, opts)
	if err != nil {
		return fmt.Errorf("admin endpoint: %w", err)
	}
	d.adm = adm
	fmt.Printf("%s: admin endpoint on http://%s/metrics\n", d.name, adm.Addr())
	return nil
}

// Wait blocks until SIGINT or SIGTERM.
func (d *Daemon) Wait() {
	<-d.stop
	fmt.Printf("%s: shutting down\n", d.name)
}

// Close shuts down the node, the admin endpoint, the SLO engine and the
// audit ledger, in that order and whichever were started, and logs what
// failed to close.
func (d *Daemon) Close() {
	var errs []error
	if d.node != nil {
		errs = append(errs, d.node.Close())
	}
	if d.adm != nil {
		errs = append(errs, d.adm.Close())
	}
	if d.stopSLO != nil {
		d.stopSLO()
	}
	if d.led != nil {
		errs = append(errs, d.led.Close())
	}
	if err := errors.Join(errs...); err != nil {
		d.Logger.Error("shutdown", "err", err)
	}
}
