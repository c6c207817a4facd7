package mem

import "casino/internal/eventq"

// Config holds the memory-system parameters of Table I.
type Config struct {
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	L1Latency        int // cycles (both L1I and L1D)
	L2Latency        int
	L1DMSHRs         int
	L2MSHRs          int
	PrefetchDegree   int // 0 disables the L2 prefetcher
	DRAMSpeedMTS     int // DDR4 speed grade in MT/s (0 = 2400)
}

// DefaultConfig returns the Table I memory system: 32 KiB 8-way L1s with
// 4-cycle latency, 1 MiB 16-way L2 with 11-cycle latency and a stride
// prefetcher, DDR4-2400 DRAM.
func DefaultConfig() Config {
	return Config{
		L1ISize: 32 << 10, L1IWays: 8,
		L1DSize: 32 << 10, L1DWays: 8,
		L2Size: 1 << 20, L2Ways: 16,
		L1Latency: 4, L2Latency: 11,
		L1DMSHRs: 8, L2MSHRs: 16,
		PrefetchDegree: 2,
		DRAMSpeedMTS:   2400,
	}
}

// Level identifies where an access was satisfied.
type Level uint8

// Hit levels returned by Load.
const (
	LvlL1 Level = iota
	LvlL2
	LvlMem
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	default:
		return "Mem"
	}
}

// Hierarchy composes the caches, MSHRs, prefetcher and DRAM, and provides
// the three timing entry points used by cores: Fetch (L1I), Load and Store
// (L1D). All return the core cycle at which the access completes.
type Hierarchy struct {
	cfg  Config
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	DRAM *DRAM
	mshr *MSHRs
	pf   *StridePrefetcher
	wq   *eventq.Queue

	Loads      uint64
	Stores     uint64
	Fetches    uint64
	LoadsByLvl [3]uint64

	// Warm counts functional-warming replay activity (see warm.go); the
	// timing counters above never move during warming.
	Warm WarmStats
}

// NewHierarchy builds a hierarchy with the given configuration.
func NewHierarchy(cfg Config) *Hierarchy {
	mts := cfg.DRAMSpeedMTS
	if mts == 0 {
		mts = 2400
	}
	h := &Hierarchy{
		cfg:  cfg,
		L1I:  NewCache("L1I", cfg.L1ISize, cfg.L1IWays),
		L1D:  NewCache("L1D", cfg.L1DSize, cfg.L1DWays),
		L2:   NewCache("L2", cfg.L2Size, cfg.L2Ways),
		DRAM: NewDRAMGrade(mts),
		mshr: NewMSHRs(cfg.L1DMSHRs),
	}
	if cfg.PrefetchDegree > 0 {
		h.pf = NewStridePrefetcher(cfg.PrefetchDegree)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// SetWakeQueue attaches the shared wakeup queue; every L1D fill completion
// (MSHR/DRAM return) is registered as it is recorded. Callers also register
// the completion cycles they store, so these wakeups mostly coalesce — they
// exist so the memory system upholds the registration contract on its own.
func (h *Hierarchy) SetWakeQueue(q *eventq.Queue) { h.wq = q }

// Fetch models an instruction fetch of the line containing pc at cycle t
// and returns the completion cycle (t + L1 latency on a hit).
func (h *Hierarchy) Fetch(pc uint64, t int64) int64 {
	h.Fetches++
	hit, _, _ := h.L1I.Access(pc, false)
	if hit {
		return t + int64(h.cfg.L1Latency)
	}
	// Instruction misses go through L2/DRAM without occupying data MSHRs.
	done := h.fillFromL2(pc, t+int64(h.cfg.L1Latency), false)
	return done
}

// Load models a data load at cycle t; pc is the load's PC (prefetcher
// training). It returns the completion cycle and the level that served it.
func (h *Hierarchy) Load(pc, addr uint64, t int64) (int64, Level) {
	h.Loads++
	line := LineAddr(addr)
	hit, wb, victim := h.L1D.Access(addr, false)
	if hit {
		// The tag may be installed while its fill is still in flight
		// (hit-under-miss): such loads merge with the outstanding fill.
		if ready, out := h.mshr.Lookup(line, t); out {
			h.LoadsByLvl[LvlMem]++
			return ready, LvlMem
		}
		h.LoadsByLvl[LvlL1]++
		return t + int64(h.cfg.L1Latency), LvlL1
	}
	h.writebackToL2(wb, victim)
	if ready, out := h.mshr.Lookup(line, t); out {
		// Merge with an in-flight fill of the same line.
		h.LoadsByLvl[LvlMem]++ // merged requests were memory-bound
		min := t + int64(h.cfg.L1Latency)
		if ready < min {
			ready = min
		}
		return ready, LvlMem
	}
	start := h.mshr.Allocate(line, t)
	if h.pf != nil {
		h.trainPrefetcher(pc, addr, start)
	}
	probeL2 := start + int64(h.cfg.L1Latency)
	done := h.fillFromL2(addr, probeL2, false)
	h.mshr.Complete(line, done)
	h.wq.Wake(done)
	lvl := LvlL2
	if done > probeL2+int64(h.cfg.L2Latency) {
		lvl = LvlMem
	}
	h.LoadsByLvl[lvl]++
	return done, lvl
}

// Store models a store's cache update (performed when the store retires
// from the store buffer) at cycle t. Write-allocate: a miss fetches the
// line before completing.
func (h *Hierarchy) Store(pc, addr uint64, t int64) int64 {
	h.Stores++
	line := LineAddr(addr)
	hit, wb, victim := h.L1D.Access(addr, true)
	if hit {
		if ready, out := h.mshr.Lookup(line, t); out {
			return ready
		}
		return t + int64(h.cfg.L1Latency)
	}
	h.writebackToL2(wb, victim)
	if ready, out := h.mshr.Lookup(line, t); out {
		min := t + int64(h.cfg.L1Latency)
		if ready < min {
			ready = min
		}
		return ready
	}
	start := h.mshr.Allocate(line, t)
	if h.pf != nil {
		h.trainPrefetcher(pc, addr, start)
	}
	done := h.fillFromL2(addr, start+int64(h.cfg.L1Latency), false)
	h.mshr.Complete(line, done)
	h.wq.Wake(done)
	return done
}

// fillFromL2 looks up the L2 at cycle t and, on a miss, the DRAM; it
// returns the completion cycle of the fill.
func (h *Hierarchy) fillFromL2(addr uint64, t int64, write bool) int64 {
	hit, wb, victim := h.L2.Access(addr, write)
	if wb {
		// L2 dirty eviction: write back to DRAM, charged to the bus but
		// not on this access's critical path.
		h.DRAM.Access(victim, true, t)
	}
	if hit {
		return t + int64(h.cfg.L2Latency)
	}
	return h.DRAM.Access(addr, false, t+int64(h.cfg.L2Latency))
}

func (h *Hierarchy) writebackToL2(wb bool, victim uint64) {
	if !wb {
		return
	}
	// L1 dirty eviction installs into L2 (timing off critical path).
	_, wb2, v2 := h.L2.Access(victim, true)
	if wb2 {
		h.DRAM.Access(v2, true, 0)
	}
}

// trainPrefetcher issues the prefetches of one L1D miss. It is done with
// Train's buffer before it returns, so the buffer can be reused.
func (h *Hierarchy) trainPrefetcher(pc, addr uint64, t int64) {
	for _, pa := range h.pf.Train(pc, addr) {
		if h.L2.Probe(pa) {
			continue
		}
		h.DRAM.Access(pa, false, t)
		if wb, v := h.L2.Fill(pa); wb {
			h.DRAM.Access(v, true, t)
		}
	}
}

// Reset clears all cache/DRAM/MSHR state and statistics.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.DRAM.Reset()
	h.mshr.Reset()
	if h.pf != nil {
		h.pf.Reset()
	}
	h.Loads, h.Stores, h.Fetches = 0, 0, 0
	h.LoadsByLvl = [3]uint64{}
	h.Warm = WarmStats{}
	h.wq = nil // detach the previous run's wakeup queue (Wake is nil-safe)
}

// MSHRStats exposes MSHR activity (allocs, merges, full-stalls).
func (h *Hierarchy) MSHRStats() (allocs, merges, stalls uint64) {
	return h.mshr.Allocs, h.mshr.Merges, h.mshr.Stalls
}
