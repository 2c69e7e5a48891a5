package hprime

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheTransparent(t *testing.T) {
	SetCacheCapacity(0) // cold reference values
	type ref struct {
		p      string
		probes int
	}
	inputs := make([][]byte, 64)
	want := make([]ref, len(inputs))
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("cache-input-%d", i))
		p, probes := HashCount(inputs[i])
		want[i] = ref{p.String(), probes}
	}
	SetCacheCapacity(DefaultCacheCapacity)
	defer SetCacheCapacity(DefaultCacheCapacity)
	for round := 0; round < 3; round++ {
		for i, in := range inputs {
			p, probes := HashCount(in)
			if p.String() != want[i].p || probes != want[i].probes {
				t.Fatalf("round %d input %d: cached (%v,%d) != uncached (%v,%d)",
					round, i, p, probes, want[i].p, want[i].probes)
			}
		}
	}
	if CacheLen() == 0 {
		t.Fatal("cache did not retain entries")
	}
}

func TestCacheReturnsFreshInts(t *testing.T) {
	SetCacheCapacity(DefaultCacheCapacity)
	defer SetCacheCapacity(DefaultCacheCapacity)
	in := []byte("mutation-probe")
	a := Hash(in)
	a.SetInt64(0) // caller abuses the returned value
	if b := Hash(in); b.Sign() == 0 {
		t.Fatal("cache handed out a shared big.Int")
	}
}

func TestCacheRotation(t *testing.T) {
	SetCacheCapacity(8)
	defer SetCacheCapacity(DefaultCacheCapacity)
	for i := 0; i < 64; i++ {
		Hash([]byte(fmt.Sprintf("rot-%d", i)))
	}
	if n := CacheLen(); n > 16 {
		t.Fatalf("two-generation cache holds %d entries at capacity 8", n)
	}
}

func TestCacheConcurrent(t *testing.T) {
	SetCacheCapacity(64)
	defer SetCacheCapacity(DefaultCacheCapacity)
	want := make(map[int]string)
	for i := 0; i < 32; i++ {
		want[i] = Hash([]byte(fmt.Sprintf("conc-%d", i))).String()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for k := 0; k < 128; k++ {
				i := (k + seed) % 32
				if got := Hash([]byte(fmt.Sprintf("conc-%d", i))); got.String() != want[i] {
					errs <- fmt.Errorf("input %d: %v != %v", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkHashCold reports, beside the time and the allocations of one
// prime derived with the memo off, the probes it took: a change to the probe
// loop may move the first two and must not move the third.
func BenchmarkHashCold(b *testing.B) {
	SetCacheCapacity(0)
	defer SetCacheCapacity(DefaultCacheCapacity)
	b.ReportAllocs()
	probes := 0
	for i := 0; i < b.N; i++ {
		_, n := HashCount([]byte(fmt.Sprintf("bench-cold-%d", i)))
		probes += n
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

func BenchmarkHashCached(b *testing.B) {
	SetCacheCapacity(DefaultCacheCapacity)
	Hash([]byte("bench-hot"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash([]byte("bench-hot"))
	}
}
