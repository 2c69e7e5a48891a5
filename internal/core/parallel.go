package core

import (
	"sync"
	"sync/atomic"
)

// ForEachIndexed runs fn(0) .. fn(n-1) across at most workers goroutines.
// Callers pass runtime.GOMAXPROCS(0) for CPU-bound work and n for work that
// waits on the network, one goroutine per item.
//
// It preserves the semantics of the serial loop the callers replaced:
//
//   - Output determinism — callers write results[i] inside fn, so result
//     order matches index order regardless of scheduling.
//   - First-error semantics — the returned error is the one produced by the
//     lowest failing index, exactly what a serial early-return would yield.
//     With more than one worker every index runs even after a failure, so
//     a broadcast still reaches every peer when one of them fails.
//
// workers <= 1 (or n <= 1) degrades to the plain serial loop with zero
// goroutine overhead.
func ForEachIndexed(n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
