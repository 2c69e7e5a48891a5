package hprime

import (
	"crypto/sha256"
	"math/big"
	"sync"
)

// DefaultCacheCapacity is the default per-generation size of the prime memo
// cache: 32K entries ≈ 3 MB resident. Search-heavy workloads re-derive the
// same (token, set-hash) prime on the cloud, the verifier and the chain
// replayer; memoizing the digest→prime mapping turns those repeats into a
// map hit instead of a fresh probe loop.
const DefaultCacheCapacity = 1 << 15

// cachedPrime memoizes a probe-loop outcome. probes is kept alongside the
// prime so instrumented callers (gas metering charges per probe) observe
// exactly the same counts whether or not the cache hits.
type cachedPrime struct {
	prime  *big.Int // never mutated; copied on every return
	probes int
}

// primeCache is a two-generation memo keyed by HashCount's SHA-256 digest,
// so keying costs nothing extra and collisions reduce to SHA-256
// collisions. Inserts land in cur, and when cur fills, cur becomes prev and
// a fresh generation starts. Hits in prev are promoted. Eviction is
// therefore bounded, deterministic in aggregate size, and needs no
// per-entry bookkeeping.
type primeCache struct {
	mu        sync.RWMutex
	capacity  int
	cur, prev map[[sha256.Size]byte]cachedPrime
}

var cache = primeCache{
	capacity: DefaultCacheCapacity,
	cur:      make(map[[sha256.Size]byte]cachedPrime),
}

// SetCacheCapacity resizes the memo cache's per-generation capacity. Zero or
// negative disables caching entirely. Resizing clears the cache; outputs are
// identical at every setting, only the amortized cost changes.
func SetCacheCapacity(n int) {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.capacity = n
	cache.prev = nil
	if n > 0 {
		cache.cur = make(map[[sha256.Size]byte]cachedPrime, n)
	} else {
		cache.cur = nil
	}
}

// CacheLen reports the number of resident memo entries (both generations).
func CacheLen() int {
	cache.mu.RLock()
	defer cache.mu.RUnlock()
	return len(cache.cur) + len(cache.prev)
}

func (c *primeCache) lookup(key [sha256.Size]byte) (cachedPrime, bool) {
	c.mu.RLock()
	if c.capacity <= 0 {
		c.mu.RUnlock()
		return cachedPrime{}, false
	}
	if e, ok := c.cur[key]; ok {
		c.mu.RUnlock()
		return e, true
	}
	e, ok := c.prev[key]
	c.mu.RUnlock()
	if ok {
		c.store(key, e, false) // promote so hot entries survive rotation
	}
	return e, ok
}

// store memoizes e under key. With clone set, e.prime is still the caller's
// and is copied, but only once the memo is known to keep it.
func (c *primeCache) store(key [sha256.Size]byte, e cachedPrime, clone bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if clone {
		e.prime = new(big.Int).Set(e.prime)
	}
	if len(c.cur) >= c.capacity {
		c.prev = c.cur
		c.cur = make(map[[sha256.Size]byte]cachedPrime, c.capacity)
	}
	c.cur[key] = e
}
