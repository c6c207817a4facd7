package sim

import (
	"sync"

	"casino/internal/trace"
	"casino/internal/workload"
)

// The experiment drivers fan a (app × model) matrix out over all CPUs, and
// every cell of a column replays the *same* workload trace. Generating a
// trace is far more expensive than looking one up, so the harness shares
// generated traces through a process-wide cache: the first request for a
// key generates, every concurrent request for the same key blocks on that
// single generation (singleflight), and later requests hit the ready
// result. Cached traces are shared across goroutines, which is safe by the
// trace package's read-only contract.

// traceKey identifies one generated trace: the workload profile, the total
// dynamic length (warmup + measured ops), and the generation seed.
type traceKey struct {
	workload string
	n        int
	seed     int64
}

// traceCacheEntry is one cache slot. ready is closed once tr/err are set;
// readers that find an in-flight entry block on it instead of regenerating.
type traceCacheEntry struct {
	ready   chan struct{}
	tr      *trace.Trace
	err     error
	lastUse uint64 // cache tick of the most recent request (LRU)
	fp      uint64 // fingerprint at insertion (read-only enforcement)
}

// TraceCache is a concurrency-safe, singleflight, LRU-bounded trace cache.
// The zero value is not usable; use NewTraceCache.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceCacheEntry
	tick    uint64
	max     int

	hits, misses uint64
}

// DefaultTraceCacheSize bounds the process-wide cache. A full figure sweep
// touches 25 workloads at one (length, seed) point each, so 64 completed
// traces comfortably covers interleaved sweeps at a few sizes.
const DefaultTraceCacheSize = 64

// NewTraceCache returns a cache holding at most max completed traces
// (max <= 0 means DefaultTraceCacheSize).
func NewTraceCache(max int) *TraceCache {
	if max <= 0 {
		max = DefaultTraceCacheSize
	}
	return &TraceCache{entries: map[traceKey]*traceCacheEntry{}, max: max}
}

// sharedTraces is the process-wide cache used by Run and runMatrix.
var sharedTraces = NewTraceCache(DefaultTraceCacheSize)

// Get returns the trace for (workloadName, n ops, seed), generating it at
// most once per key no matter how many goroutines ask concurrently.
func (tc *TraceCache) Get(workloadName string, n int, seed int64) (*trace.Trace, error) {
	key := traceKey{workloadName, n, seed}
	tc.mu.Lock()
	tc.tick++
	if e, ok := tc.entries[key]; ok {
		e.lastUse = tc.tick
		tc.hits++
		tc.mu.Unlock()
		<-e.ready
		return e.tr, e.err
	}
	e := &traceCacheEntry{ready: make(chan struct{}), lastUse: tc.tick}
	tc.evictLocked()
	tc.entries[key] = e
	tc.misses++
	tc.mu.Unlock()

	p, err := workload.ByName(workloadName)
	if err == nil {
		e.tr = workload.Generate(p, n, seed)
		// Generate hashed the ops as it produced them and sealed the
		// result, so recording it here, before close(e.ready) publishes
		// the trace, costs no second pass.
		e.fp = e.tr.Fingerprint()
	} else {
		e.err = err
		// Drop failed lookups so the key does not pin a cache slot.
		tc.mu.Lock()
		delete(tc.entries, key)
		tc.mu.Unlock()
	}
	close(e.ready)
	return e.tr, e.err
}

// evictLocked drops the least-recently-used *completed* entries until the
// cache has room for one more. In-flight generations are never evicted:
// their waiters hold the entry pointer.
func (tc *TraceCache) evictLocked() {
	for len(tc.entries) >= tc.max {
		var victim traceKey
		var oldest uint64
		found := false
		for k, e := range tc.entries {
			select {
			case <-e.ready:
			default:
				continue // still generating
			}
			if !found || e.lastUse < oldest {
				victim, oldest, found = k, e.lastUse, true
			}
		}
		if !found {
			return // everything in flight; let the map grow transiently
		}
		delete(tc.entries, victim)
	}
}

// Stats reports cumulative cache behaviour: completed or in-flight entries
// resident, and hit/miss counts since process start (or the last Reset).
func (tc *TraceCache) Stats() (entries int, hits, misses uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.entries), tc.hits, tc.misses
}

// Reset empties the cache and zeroes its counters. Callers must not race a
// Reset against in-flight Gets whose results they still need (the entries
// are forgotten, not invalidated; waiters still get their trace).
func (tc *TraceCache) Reset() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.entries = map[traceKey]*traceCacheEntry{}
	tc.hits, tc.misses, tc.tick = 0, 0, 0
}

// CheckIntegrity re-fingerprints every resident completed trace and
// reports the keys whose contents changed since insertion — i.e. traces
// some core mutated in violation of the read-only contract.
func (tc *TraceCache) CheckIntegrity() []string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var bad []string
	for k, e := range tc.entries {
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.tr != nil && e.tr.Refingerprint() != e.fp {
			bad = append(bad, k.workload)
		}
	}
	return bad
}

// SharedTrace resolves a trace through the process-wide cache. It is what
// Run uses when a Spec carries no explicit trace, and what runMatrix uses
// to pre-resolve each app's trace once for a whole spec column.
func SharedTrace(workloadName string, n int, seed int64) (*trace.Trace, error) {
	return sharedTraces.Get(workloadName, n, seed)
}

// SharedTraceStats exposes the process-wide cache's Stats (tooling/tests).
func SharedTraceStats() (entries int, hits, misses uint64) { return sharedTraces.Stats() }

// ResetSharedTraces empties the process-wide cache (tests).
func ResetSharedTraces() { sharedTraces.Reset() }
