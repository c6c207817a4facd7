package dse

import (
	"sync"

	"casino/internal/sim"
)

// ResultCache memoizes completed cell results keyed by the cell's
// spec+trace fingerprint (Cell.CacheKey), following the singleflight
// discipline of the sim trace cache: the first request for a key runs the
// simulation, every concurrent request for the same key blocks on that
// single run, and later requests hit the ready result. Overlapping or
// repeated sweeps therefore never simulate the same design point twice.
//
// Only successful results are cached: a failed cell is dropped so a
// transient failure does not pin a poisoned slot.
type ResultCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	tick    uint64
	max     int

	hits, misses uint64
}

type cacheEntry struct {
	ready   chan struct{}
	res     sim.Result
	err     error
	lastUse uint64
}

// DefaultResultCacheSize bounds the cache. A sweep cell's Result is a few
// KiB of flattened metrics, so thousands are cheap to keep resident.
const DefaultResultCacheSize = 4096

// NewResultCache returns a cache holding at most max completed results
// (max <= 0 means DefaultResultCacheSize).
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = DefaultResultCacheSize
	}
	return &ResultCache{entries: map[string]*cacheEntry{}, max: max}
}

// Do returns the cached result for key, or runs run() at most once per key
// to produce it. hit reports whether a simulation was avoided — the entry
// was already resident (completed or in flight from a concurrent sweep).
func (rc *ResultCache) Do(key string, run func() (sim.Result, error)) (res sim.Result, hit bool, err error) {
	rc.mu.Lock()
	rc.tick++
	if e, ok := rc.entries[key]; ok {
		e.lastUse = rc.tick
		rc.hits++
		rc.mu.Unlock()
		<-e.ready
		return e.res, true, e.err
	}
	e := &cacheEntry{ready: make(chan struct{}), lastUse: rc.tick}
	rc.evictLocked()
	rc.entries[key] = e
	rc.misses++
	rc.mu.Unlock()

	e.res, e.err = run()
	if e.err != nil {
		rc.mu.Lock()
		delete(rc.entries, key)
		rc.mu.Unlock()
	}
	close(e.ready)
	return e.res, false, e.err
}

// Peek returns the completed result for key, counted as a hit, or false
// when the key is absent or still in flight.
func (rc *ResultCache) Peek(key string) (sim.Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e, ok := rc.entries[key]
	if !ok {
		return sim.Result{}, false
	}
	select {
	case <-e.ready: // resident and ready means it succeeded: failures are removed first
	default:
		return sim.Result{}, false
	}
	rc.tick++
	e.lastUse = rc.tick
	rc.hits++
	return e.res, true
}

// evictLocked drops least-recently-used completed entries until there is
// room for one more; in-flight runs are never evicted (their waiters hold
// the entry pointer).
func (rc *ResultCache) evictLocked() {
	for len(rc.entries) >= rc.max {
		var victim string
		var oldest uint64
		found := false
		for k, e := range rc.entries {
			select {
			case <-e.ready:
			default:
				continue
			}
			if !found || e.lastUse < oldest {
				victim, oldest, found = k, e.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(rc.entries, victim)
	}
}

// Stats reports resident entries and cumulative hit/miss counts.
func (rc *ResultCache) Stats() (entries int, hits, misses uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.entries), rc.hits, rc.misses
}
