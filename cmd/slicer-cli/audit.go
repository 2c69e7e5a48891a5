package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"slicer/internal/audit"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/wire"
)

// openClientLedger opens the client-side audit ledger at dir, stamping every
// record with tenant. An empty dir disables journaling (nil ledger — all
// ledger methods are nil-safe).
func openClientLedger(dir, tenant string, logger *slog.Logger) (*audit.Ledger, error) {
	if dir == "" {
		return nil, nil
	}
	led, err := audit.Open(audit.Options{
		Dir:    dir,
		Fsync:  durable.FsyncAlways,
		Logger: logger,
	})
	if err != nil {
		return nil, fmt.Errorf("audit ledger: %w", err)
	}
	led.SetTenant(tenant)
	return led, nil
}

// cmdProbe runs the continuous verification prober from the CLI: every probe
// issues a fresh synthetic verified search through the full fair-exchange
// flow and journals the outcome as a KindProbe record — a failed public
// verification refunds the payment, journals the evidence bundle, and makes
// the probe (and this command's exit status) fail.
func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	statePath, _, _, tenant, dialOpts := commonFlags(fs)
	opFlag := fs.String("op", "=", "operator: '=', '<' or '>'")
	value := fs.Uint64("value", 0, "probe query value")
	attr := fs.String("attr", "", "attribute name (empty for single-attribute data)")
	pay := fs.Uint64("pay", 1000, "search fee to escrow per probe")
	interval := fs.Duration("interval", audit.DefaultProbeInterval, "pause between probes")
	count := fs.Int("count", 1, "probes to run; 0 probes forever")
	auditDir := fs.String("audit-dir", "", "audit ledger journaling probe outcomes (empty: count/log only)")
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
	fn := func() (string, *audit.Evidence, error) {
		req, err := user.Token(core.Query{Attr: *attr, Op: op, Value: *value})
		if err != nil {
			return "", nil, err
		}
		res, ids, err := env.run(req, *pay, nil)
		if err != nil {
			return "", nil, err
		}
		if !res.Settled {
			// The refund evidence bundle is already journaled by the round
			// as a KindRefund record; the probe record carries the verdict.
			detail := fmt.Sprintf("request %x… refunded", res.ReqID[:8])
			return detail, nil, fmt.Errorf("on-chain verification failed: %w", res.VerifyErr)
		}
		q := fmt.Sprintf("%s %d", *opFlag, *value)
		if *attr != "" {
			q = *attr + " " + q
		}
		return fmt.Sprintf("query %s settled, gas %d, %d matches",
			q, res.GasUsed, len(ids)), nil, nil
	}
	prober := audit.NewProber(led, fn, audit.ProberOptions{
		Interval: *interval, Tenant: *tenant, Logger: logger,
	})

	probes, failures := 0, 0
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		rec, err := prober.ProbeOnce()
		probes++
		switch {
		case err != nil:
			failures++
			fmt.Printf("probe FAILED: %v\n", err)
		case rec != nil:
			fmt.Printf("probe #%d ok: %s\n", rec.Seq, rec.Detail)
		default:
			fmt.Println("probe ok")
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d probes failed", failures, probes)
	}
	return nil
}

// cmdAudit inspects an audit ledger offline: `verify` re-walks the hash
// chain from genesis, `tail` prints the most recent records.
func cmdAudit(args []string) error {
	const usage = "usage: slicer-cli audit <verify|tail> -audit-dir DIR"
	if len(args) == 0 {
		return usagef(usage)
	}
	switch args[0] {
	case "verify":
		return cmdAuditVerify(args[1:])
	case "tail":
		return cmdAuditTail(args[1:])
	case "-h", "-help", "--help", "help":
		fmt.Println(usage)
		return nil
	default:
		return usagef("unknown audit subcommand %q (want verify or tail)", args[0])
	}
}

func cmdAuditVerify(args []string) error {
	fs := flag.NewFlagSet("audit verify", flag.ExitOnError)
	dir := fs.String("audit-dir", "", "audit ledger directory to verify")
	_ = fs.Parse(args)
	if *dir == "" {
		return usagef("audit verify: -audit-dir is required")
	}
	res, err := audit.Verify(durable.OS, *dir)
	if err != nil {
		if res != nil && res.Records > 0 {
			fmt.Printf("%d records verified before the violation\n", res.Records)
		}
		return fmt.Errorf("audit chain VIOLATION: %w", err)
	}
	fmt.Printf("audit chain verified: %d records, head #%d %s\n", res.Records, res.HeadSeq, res.HeadHash)
	if res.Truncated > 0 {
		fmt.Printf("  %d torn record(s) truncated from the WAL tail (unacknowledged writes, not a chain break)\n", res.Truncated)
	}
	fmt.Printf("  %d verification failure(s), %d evidence bundle(s)\n", res.Failures, res.Evidence)
	return nil
}

func cmdAuditTail(args []string) error {
	fs := flag.NewFlagSet("audit tail", flag.ExitOnError)
	dir := fs.String("audit-dir", "", "audit ledger directory to read")
	n := fs.Int("n", 20, "how many of the newest records to print")
	_ = fs.Parse(args)
	if *dir == "" {
		return usagef("audit tail: -audit-dir is required")
	}
	records, _, err := audit.ReadDir(durable.OS, *dir)
	if err != nil {
		return fmt.Errorf("audit chain VIOLATION: %w", err)
	}
	if len(records) > *n && *n >= 0 {
		records = records[len(records)-*n:]
	}
	for i, rec := range records {
		if i > 0 {
			fmt.Println()
		}
		audit.WriteRecordText(os.Stdout, rec)
	}
	return nil
}
