package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachIndexed runs fn(0) .. fn(n-1) across at most workers goroutines.
//
// It preserves the semantics of the serial loop the callers replaced:
//
//   - Output determinism — callers write results[i] inside fn, so result
//     order matches index order regardless of scheduling.
//   - First-error semantics — the returned error is the one produced by the
//     lowest failing index, exactly what a serial early-return would yield.
//     Once some index fails, higher indices still pending are skipped (their
//     results would be discarded anyway), but lower indices always run, so
//     the winning error cannot change with scheduling.
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
	var minFail atomic.Int64
	minFail.Store(math.MaxInt64)
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
				if int64(i) > minFail.Load() {
					continue // a lower index already failed; this result is moot
				}
				if err := fn(i); err != nil {
					errs[i] = err
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
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

// EffectiveWorkers resolves a configured worker count: 0 (or negative) means
// "one per available core", anything else is taken literally.
func EffectiveWorkers(configured int) int {
	if configured <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return configured
}
