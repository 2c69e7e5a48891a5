// Command slicer-cli drives a distributed Slicer deployment from the data
// owner / data user side: it builds the encrypted database, initializes a
// remote cloud (slicer-cloud) and chain (slicer-chain), and runs verified
// searches with on-chain fair-exchange settlement.
//
// Typical session (cloud on :7401, chain on :7402):
//
//	slicer-cli init   -bits 16 -random 1000
//	slicer-cli status
//	slicer-cli search -op '<' -value 5000 -pay 1000
//	slicer-cli insert -values 2001=4242,2002=100
//	slicer-cli search -op '=' -value 4242 -pay 1000
//
// State (all deployment secrets!) persists in -state (default
// ./slicer-state.json).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
	"slicer/internal/workload"

	"encoding/json"
	"log/slog"
)

// cliState is what persists between invocations.
type cliState struct {
	Owner        json.RawMessage `json:"owner"`
	CloudAddr    string          `json:"cloudAddr"`
	ChainAddr    string          `json:"chainAddr"`
	ContractAddr chain.Address   `json:"contractAddr"`
	OwnerAcct    chain.Address   `json:"ownerAcct"`
	UserAcct     chain.Address   `json:"userAcct"`
	CloudAcct    chain.Address   `json:"cloudAcct"`
}

const usage = "usage: slicer-cli <init|insert|search|status|probe|audit|rebalance> [flags]; <command> -h lists its flags"

// usageError is a command line slicer-cli cannot run: exit 2, where a
// failure while running exits 1. Bad flags never get this far: subcommand
// flag sets are flag.ExitOnError, so Parse itself exits 2 on one and 0
// after printing the usage for -h.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-cli:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usagef(usage)
	}
	switch args[0] {
	case "init":
		return cmdInit(args[1:])
	case "insert":
		return cmdInsert(args[1:])
	case "search":
		return cmdSearch(args[1:])
	case "status":
		return cmdStatus(args[1:])
	case "probe":
		return cmdProbe(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "rebalance":
		return cmdRebalance(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Println(usage)
		return nil
	default:
		return usagef("unknown subcommand %q (want init, insert, search, status, probe, audit or rebalance)", args[0])
	}
}

func commonFlags(fs *flag.FlagSet) (statePath, cloudAddr, chainAddr, tenant *string, opts func() wire.ClientOptions) {
	statePath = fs.String("state", "slicer-state.json", "path of the persisted deployment state")
	cloudAddr = fs.String("cloud", "127.0.0.1:7401", "cloud server address")
	chainAddr = fs.String("chain", "127.0.0.1:7402", "chain server address")
	tenant = fs.String("tenant", "", "tenant tag stamped on every RPC (servers label metrics and audit records with it)")
	dialTO := fs.Duration("dial-timeout", wire.DefaultDialTimeout, "timeout for connecting to a server")
	callTO := fs.Duration("call-timeout", wire.DefaultCallTimeout, "per-RPC deadline; 0 or negative disables")
	opts = func() wire.ClientOptions {
		o := wire.ClientOptions{DialTimeout: *dialTO, CallTimeout: *callTO, Tenant: *tenant}
		if *callTO <= 0 {
			o.CallTimeout = -1
		}
		return o
	}
	return
}

// logFlags registers the logging flags and returns a constructor for the
// configured logger (writing to stderr so stdout stays parseable).
func logFlags(fs *flag.FlagSet) func() (*slog.Logger, error) {
	level := fs.String("log-level", "warn", "log level: debug, info, warn, error")
	format := fs.String("log-format", "text", "log format: text or json")
	return func() (*slog.Logger, error) {
		logger, err := obs.NewLogger(os.Stderr, *level, *format)
		if err != nil {
			return nil, usageError{err}
		}
		return logger, nil
	}
}

func loadState(path string) (*cliState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read state (did you run init?): %w", err)
	}
	var st cliState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("parse state: %w", err)
	}
	return &st, nil
}

func saveState(path string, st *cliState) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	// The blob holds all deployment secrets; keep it owner-readable only,
	// and write it atomically so an interrupted save can never leave a
	// torn file where the only copy of the keys used to be.
	return durable.AtomicWriteFile(path, data, 0o600)
}

func parseRecords(random int, bits int, values string, firstSeed int64) ([]core.Record, error) {
	if random > 0 {
		return workload.Generate(workload.Config{N: random, Bits: bits, Seed: firstSeed}), nil
	}
	if values == "" {
		return nil, usagef("provide -random N or -values id=value,...")
	}
	var records []core.Record
	for _, pair := range strings.Split(values, ",") {
		parts := strings.SplitN(strings.TrimSpace(pair), "=", 2)
		if len(parts) != 2 {
			return nil, usagef("bad record %q (want id=value)", pair)
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, usagef("bad record id %q: %w", parts[0], err)
		}
		v, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return nil, usagef("bad record value %q: %w", parts[1], err)
		}
		records = append(records, core.NewRecord(id, v))
	}
	return records, nil
}

// parseOp maps an -op spelling to its query operator.
func parseOp(s string) (core.Op, error) {
	switch s {
	case "=":
		return core.OpEqual, nil
	case "<":
		return core.OpLess, nil
	case ">":
		return core.OpGreater, nil
	}
	return 0, usagef("bad -op %q", s)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	statePath, cloudAddr, chainAddr, _, dialOpts := commonFlags(fs)
	bits := fs.Int("bits", 16, "value bit width")
	random := fs.Int("random", 0, "generate N random records")
	values := fs.String("values", "", "explicit records: id=value,id=value,...")
	tdBits := fs.Int("trapdoor-bits", 1024, "trapdoor permutation modulus bits")
	accBits := fs.Int("accumulator-bits", 1024, "accumulator modulus bits")
	prefix := fs.Bool("prefix-index", false, "index bit prefixes to enable 'search -range lo:hi'")
	mkLogger := logFlags(fs)
	_ = fs.Parse(args)
	logger, err := mkLogger()
	if err != nil {
		return err
	}

	db, err := parseRecords(*random, *bits, *values, 1)
	if err != nil {
		return err
	}
	owner, err := core.NewOwner(core.Params{
		Bits: *bits, TrapdoorBits: *tdBits, AccumulatorBits: *accBits, PrefixIndex: *prefix,
	})
	if err != nil {
		return err
	}
	built, err := owner.Build(db)
	if err != nil {
		return err
	}
	logger.Debug("index built", "records", len(db), "entries", built.Index.Len(), "keywords", len(built.Primes))
	fmt.Printf("built encrypted index over %d records (%d index entries, %d keywords)\n",
		len(db), built.Index.Len(), len(built.Primes))

	cloud, err := wire.DialCloudOpts(*cloudAddr, dialOpts())
	if err != nil {
		return err
	}
	defer cloud.Close()
	if err := cloud.Init(owner.CloudInit(built.Index), true); err != nil {
		return fmt.Errorf("initialize cloud: %w", err)
	}
	fmt.Printf("cloud %s initialized\n", *cloudAddr)

	chainCli, err := wire.DialChainOpts(*chainAddr, dialOpts())
	if err != nil {
		return err
	}
	defer chainCli.Close()
	st := &cliState{
		CloudAddr: *cloudAddr,
		ChainAddr: *chainAddr,
		OwnerAcct: chain.AddressFromString("owner"),
		UserAcct:  chain.AddressFromString("user"),
		CloudAcct: chain.AddressFromString("cloud"),
	}
	nonce, err := chainCli.Nonce(st.OwnerAcct)
	if err != nil {
		return err
	}
	rc, err := chainCli.Mine(contract.DeployTx(st.OwnerAcct, nonce, owner.AccumulatorPub().Marshal(), owner.Ac(), 50_000_000))
	if err != nil {
		return err
	}
	if !rc.Status {
		return fmt.Errorf("contract deployment reverted: %s", rc.Err)
	}
	st.ContractAddr = rc.ContractAddress
	fmt.Printf("contract deployed at %s (gas %d)\n", rc.ContractAddress, rc.GasUsed)

	ownerBlob, err := owner.Marshal()
	if err != nil {
		return err
	}
	st.Owner = ownerBlob
	if err := saveState(*statePath, st); err != nil {
		return err
	}
	fmt.Printf("state saved to %s\n", *statePath)
	return nil
}

func cmdInsert(args []string) error {
	fs := flag.NewFlagSet("insert", flag.ExitOnError)
	statePath, _, _, _, dialOpts := commonFlags(fs)
	random := fs.Int("random", 0, "generate N random records")
	values := fs.String("values", "", "explicit records: id=value,...")
	mkLogger := logFlags(fs)
	_ = fs.Parse(args)
	logger, err := mkLogger()
	if err != nil {
		return err
	}
	st, err := loadState(*statePath)
	if err != nil {
		return err
	}
	owner, err := core.UnmarshalOwner(st.Owner)
	if err != nil {
		return err
	}
	records, err := parseRecords(*random, owner.Params().Bits, *values, 7)
	if err != nil {
		return err
	}
	up, err := owner.Insert(records)
	if err != nil {
		return err
	}
	logger.Debug("delta built", "records", len(records))

	cloud, err := wire.DialCloudOpts(st.CloudAddr, dialOpts())
	if err != nil {
		return err
	}
	defer cloud.Close()
	if err := cloud.Update(up); err != nil {
		return fmt.Errorf("ship delta to cloud: %w", err)
	}

	chainCli, err := wire.DialChainOpts(st.ChainAddr, dialOpts())
	if err != nil {
		return err
	}
	defer chainCli.Close()
	_, rc, err := exchange.PostAc(chainCli, st.OwnerAcct, st.ContractAddr, owner.Ac())
	if err != nil {
		return err
	}
	fmt.Printf("inserted %d records; on-chain ADS digest refreshed (gas %d)\n", len(records), rc.GasUsed)

	ownerBlob, err := owner.Marshal()
	if err != nil {
		return err
	}
	st.Owner = ownerBlob
	return saveState(*statePath, st)
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	statePath, _, _, tenant, dialOpts := commonFlags(fs)
	opFlag := fs.String("op", "=", "operator: '=', '<' or '>'")
	value := fs.Uint64("value", 0, "query value")
	rangeFlag := fs.String("range", "", "inclusive range 'lo:hi' (needs init -prefix-index); overrides -op/-value")
	attr := fs.String("attr", "", "attribute name (empty for single-attribute data)")
	pay := fs.Uint64("pay", 1000, "search fee to escrow")
	trace := fs.Bool("trace", false, "print the merged cross-machine trace of the search after the results")
	auditDir := fs.String("audit-dir", "", "optional client-side audit ledger; journals search/settle/refund with evidence")
	mkLogger := logFlags(fs)
	_ = fs.Parse(args)
	logger, err := mkLogger()
	if err != nil {
		return err
	}
	op, err := parseOp(*opFlag)
	if err != nil {
		return err
	}
	var lo, hi uint64
	if *rangeFlag != "" {
		parts := strings.SplitN(*rangeFlag, ":", 2)
		if len(parts) != 2 {
			return usagef("bad -range %q (want lo:hi)", *rangeFlag)
		}
		if lo, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
			return usagef("bad range low bound: %w", err)
		}
		if hi, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
			return usagef("bad range high bound: %w", err)
		}
	}

	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("slicer-cli search")
		defer func() { _ = tr.WriteText(os.Stderr) }()
	}

	st, err := loadState(*statePath)
	if err != nil {
		return err
	}
	owner, err := core.UnmarshalOwner(st.Owner)
	if err != nil {
		return err
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		return err
	}

	var req *core.SearchRequest
	var queryDesc string
	endToken := tr.Span("token")
	if *rangeFlag != "" {
		req, err = user.RangeTokens(*attr, lo, hi)
		queryDesc = fmt.Sprintf("%s in [%d,%d]", *attr, lo, hi)
	} else {
		req, err = user.Token(core.Query{Attr: *attr, Op: op, Value: *value})
		queryDesc = fmt.Sprintf("%s %s %d", *attr, *opFlag, *value)
	}
	if err != nil {
		return err
	}
	endToken()
	logger.Debug("tokens generated", "query", queryDesc, "tokens", len(req.Tokens))
	fmt.Printf("query %s -> %d search tokens\n", queryDesc, len(req.Tokens))

	chainCli, err := wire.DialChainOpts(st.ChainAddr, dialOpts())
	if err != nil {
		return err
	}
	defer chainCli.Close()
	cloud, err := wire.DialCloudOpts(st.CloudAddr, dialOpts())
	if err != nil {
		return err
	}
	defer cloud.Close()
	led, err := openClientLedger(*auditDir, *tenant, logger)
	if err != nil {
		return err
	}
	defer led.Close()

	env := newFairExchangeEnv(st, owner, user, cloud, chainCli, logger, led, *tenant)
	res, ids, err := env.run(req, *pay, tr)
	if err != nil {
		return err
	}
	fmt.Printf("escrowed %d on chain (request %x...)\n", *pay, res.ReqID[:6])
	if !res.Settled {
		fmt.Println("on-chain verification FAILED; payment refunded")
		fmt.Println("local verification:", res.VerifyErr)
		return nil
	}
	fmt.Printf("on-chain verification passed (gas %d); payment settled to the cloud\n", res.GasUsed)
	fmt.Println("matching record IDs:", ids)
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	statePath, _, _, _, dialOpts := commonFlags(fs)
	mkLogger := logFlags(fs)
	_ = fs.Parse(args)
	if _, err := mkLogger(); err != nil {
		return err
	}
	st, err := loadState(*statePath)
	if err != nil {
		return err
	}
	cloud, err := wire.DialCloudOpts(st.CloudAddr, dialOpts())
	if err != nil {
		return err
	}
	defer cloud.Close()
	stats, err := cloud.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("cloud %s: %d index entries (%d bytes), %d primes (%d bytes)\n",
		st.CloudAddr, stats.IndexEntries, stats.IndexBytes, stats.Primes, stats.ADSBytes)
	fmt.Printf("  served %d searches, up %.0fs\n", stats.SearchCalls, stats.UptimeSeconds)
	printShardStatus(st.CloudAddr, dialOpts())
	if w := stats.SearchWindow; w != nil && w.Count > 0 {
		fmt.Printf("  search latency (last %.0fs, %d calls): p50 %s  p99 %s\n",
			w.WindowSeconds, w.Count,
			time.Duration(w.P50*float64(time.Second)).Round(time.Microsecond),
			time.Duration(w.P99*float64(time.Second)).Round(time.Microsecond))
	}
	for _, slo := range stats.SLOs {
		if slo.Missing {
			fmt.Printf("  slo %-12s no data yet\n", slo.Name)
			continue
		}
		fmt.Printf("  slo %-12s %-8s good %.4f  burn fast %.1f / slow %.1f\n",
			slo.Name, slo.State, slo.GoodFraction, slo.FastBurn, slo.SlowBurn)
	}

	chainCli, err := wire.DialChainOpts(st.ChainAddr, dialOpts())
	if err != nil {
		return err
	}
	defer chainCli.Close()
	height, err := chainCli.Height()
	if err != nil {
		return err
	}
	fmt.Printf("chain %s: height %d, contract %s\n", st.ChainAddr, height, st.ContractAddr)
	for _, acct := range []struct {
		name string
		addr chain.Address
	}{{"owner", st.OwnerAcct}, {"user", st.UserAcct}, {"cloud", st.CloudAcct}} {
		bal, err := chainCli.Balance(acct.addr)
		if err != nil {
			return err
		}
		fmt.Printf("  %-6s %s balance %d\n", acct.name, acct.addr, bal)
	}
	return nil
}
