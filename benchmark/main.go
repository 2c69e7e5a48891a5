// Command benchmark is the repository's benchmark: it times whole
// fair-exchange rounds (escrow, search, on-chain verification, settlement) and
// inserts on four named workloads, checks every result against a plaintext
// oracle, and in a second, traced mode attributes the time to layers by
// timing calls into the packages' public functions. See README.md.
//
//	bash benchmark/run.sh --workload wire-mixed --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if err := cli(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func cli() error {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	workload := flag.String("workload", "", "one of "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seeds the dataset, the query stream and the inserts")
	seconds := flag.Float64("seconds", 10, "length of the timed section")
	trace := flag.Int("trace", 0, "1 records spans and shadow calls and reports the per-layer metrics; 0 reports the end-to-end metrics")
	out := flag.String("out", "", "also append the full result record to this result set")
	cmp := flag.Bool("compare", false, "compare two result sets given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			return fmt.Errorf("--compare wants two result sets")
		}
		bf, err := loadBenchmarkFile()
		if err != nil {
			return err
		}
		worse, err := compare(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if worse {
			return fmt.Errorf("%s is worse than %s", flag.Arg(1), flag.Arg(0))
		}
		return nil
	}

	spec, ok := specByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q; want one of %s", *workload, strings.Join(names, ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d processors available", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	res, err := run(config{
		spec: spec, scale: fullScale, seed: *seed, seconds: *seconds, traced: *trace != 0,
		scratch: ".bench_build", outDir: filepath.Join("benchmark", "out"),
	})
	if err != nil {
		return err
	}
	if err := res.finite(); err != nil {
		return err
	}
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			return err
		}
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
