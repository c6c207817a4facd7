package sim

// Sampled simulation with functional warming (SMARTS-style): instead of
// simulating every cycle of the measured region, the driver alternates
// short detailed windows — the full model, built mid-trace via NewAt — with
// long functional-warming gaps that replay the skipped instructions against
// only the long-lived shared state: the memory hierarchy (cache contents,
// prefetcher table, DRAM open rows and bank/bus backlog; see mem's Warm*
// entry points) and the branch predictor. Caches and the predictor
// therefore never go cold while the pipeline, IQ and ROB are skipped.
//
// Each detailed window discards a pipeline-warmup prefix (WarmOps commits)
// before its measurement snapshot, exactly like a full run's Warmup. The
// cycle estimate is hybrid: windows contribute their measured cycles; each
// gap contributes virtual cycles — its op count priced at the running
// pooled CPI of the windows so far, plus any DRAM backlog payments the
// warmed reference stream triggered (rare giant stalls where a demand miss
// absorbs the bus debt of an unthrottled prefetch/writeback stream; far too
// episodic for window sampling alone to catch, but carried exactly by the
// warmed DRAM bank/bus state). Per-window IPCs also aggregate into a CLT
// 95% confidence interval. Sampled runs publish only `sampled.*` metrics —
// none of the full-fidelity metric names — so nothing sampled can ever
// collide with a golden-gated manifest.

import (
	"fmt"
	"math"

	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/ptrace"
	"casino/internal/stats"
	"casino/internal/trace"
)

// Default sampling geometry: an ~8% detail fraction (the wall-clock lever)
// with a pipeline-warm prefix long enough to refill the deepest window. The
// period must dodge the workload generator's ~2048-op phase length — periods
// near 2048 or its small rational multiples resonate with phase boundaries
// even under randomized in-stratum offsets (2100 and 2400 both measurably
// bias figure-level IPC; 1800 does not). The cross-validation suite pins
// the resulting per-figure IPC error ≤ 3%.
const (
	DefaultSamplePeriod  = 1800
	DefaultSampleDetail  = 150
	DefaultSampleWarmOps = 60
)

// stallChargeNum/Den weight the DRAM backlog payment (regionStall) in the
// hybrid estimate. The raw payment is what a core that blocks for the full
// queueing excess would pay (the in-order limit); a core that overlaps
// misses under its instruction window and whose run-ahead prefetch
// timeliness avoids part of the debt pays less (the out-of-order limit is
// near zero). Cross-validation against full fidelity across all models and
// workloads places the cross-model optimum near the midpoint; charging half
// keeps the in-order family's episodic payments (libquantum-style backlog
// bursts) in the estimate without double-billing cores that hide them.
const (
	stallChargeNum = 1
	stallChargeDen = 2
)

// Sampling configures sampled simulation. Every sampling period of Period
// micro-ops begins with one detailed window of DetailOps ops (the first
// WarmOps of which warm the pipeline and are excluded from measurement);
// the remaining Period-DetailOps ops are replayed by functional warming.
// The zero value of any field selects its default.
type Sampling struct {
	Period    int `json:"period"`
	DetailOps int `json:"detail_ops"`
	WarmOps   int `json:"warm_ops"`
}

// Normalized returns the geometry with zero-valued fields replaced by the
// defaults — the form under which two Sampling values describe the same
// run (sweep layers fingerprint this, not the raw struct).
func (sp Sampling) Normalized() Sampling { return sp.normalized() }

// Check validates the geometry after normalization. Exported so sweep
// layers can reject a bad geometry at submit time instead of per cell.
func (sp Sampling) Check() error { return sp.normalized().validate() }

// normalized fills zero fields with the default geometry.
func (sp Sampling) normalized() Sampling {
	if sp.Period <= 0 {
		sp.Period = DefaultSamplePeriod
	}
	if sp.DetailOps <= 0 {
		sp.DetailOps = DefaultSampleDetail
	}
	if sp.WarmOps <= 0 {
		sp.WarmOps = DefaultSampleWarmOps
	}
	return sp
}

// validate checks an already-normalized geometry.
func (sp Sampling) validate() error {
	if sp.WarmOps >= sp.DetailOps {
		return fmt.Errorf("sim: sampling warm_ops %d must be < detail_ops %d", sp.WarmOps, sp.DetailOps)
	}
	if sp.DetailOps > sp.Period {
		return fmt.Errorf("sim: sampling detail_ops %d must be <= period %d", sp.DetailOps, sp.Period)
	}
	return nil
}

// SampledStats summarizes a sampled run: what was simulated in detail, what
// was only warmed, and the hybrid estimate with its CLT confidence interval
// (1.96·s/√n over per-window IPCs; 0 when only one window fit).
type SampledStats struct {
	Windows        int     `json:"windows"`
	DetailInstrs   uint64  `json:"detail_instructions"`
	DetailCycles   uint64  `json:"detail_cycles"`
	GapCycles      uint64  `json:"gap_virtual_cycles"`     // estimated cycles of all non-measured ops
	DRAMStall      uint64  `json:"warm_dram_stall_cycles"` // backlog payments inside GapCycles
	WarmInstrs     uint64  `json:"warm_instructions"`
	IPC            float64 `json:"ipc"`               // region / EstCycles
	IPCPooled      float64 `json:"ipc_window_pooled"` // windows' Σinstr/Σcycles
	IPCMean        float64 `json:"ipc_window_mean"`   // mean of per-window IPCs
	IPCCI95        float64 `json:"ipc_ci95"`
	EstCycles      uint64  `json:"est_cycles"` // detail + gap + prefix cycles
	DetailFraction float64 `json:"detail_fraction"`
}

// warmer replays trace micro-ops against only the shared long-lived state.
// It mirrors the frontend's per-line I-fetch gate (one WarmFetch per cache
// line, re-checked after a taken branch) so the warmed L1I sees the same
// reference stream a detailed frontend would generate.
//
// The warmer also keeps a virtual clock vt: each replayed op advances it by
// the running pooled CPI of the detailed windows so far (32.32 fixed point
// with a carried fractional accumulator, so replay is byte-deterministic
// without a per-op division), and warm demand DRAM fills
// add their queueing excess on top (see mem.DRAM.WarmDemand). vt serves two
// purposes: it is the time base on which warm DRAM traffic builds and pays
// bank/bus backlog, and its per-gap delta is the gap's estimated cycle
// cost in the hybrid estimator.
type warmer struct {
	rd       *trace.Reader
	hier     *mem.Hierarchy
	pred     *bpred.Predictor
	lastLine uint64
	haveLine bool

	vt  int64  // virtual cycles
	fp  uint64 // pooled window CPI in 32.32 fixed point
	acc uint64 // fractional-cycle accumulator (low 32 bits)
}

// seek repositions the warmer mid-trace, invalidating the line gate (the
// next op is not fetch-contiguous with the previous one).
func (w *warmer) seek(pos int) {
	w.rd.Seek(pos)
	w.haveLine = false
}

// setCPI updates the virtual-clock rate to cyc cycles per ins instructions,
// quantized to 32.32 fixed point so the per-op advance is a shift-and-add
// (exact enough: the quantization error is below 2⁻³² cycles per op, and the
// advance stays byte-deterministic).
func (w *warmer) setCPI(cyc, ins uint64) {
	if cyc > 0 && ins > 0 {
		w.fp = (cyc << 32) / ins
	}
}

// replay warms through up to n ops and returns how many it consumed.
func (w *warmer) replay(n int) int {
	rd, hier, pred := w.rd, w.hier, w.pred
	done := 0
	for done < n {
		op := rd.Next()
		if op == nil {
			break
		}
		done++
		w.acc += w.fp
		w.vt += int64(w.acc >> 32)
		w.acc &= 0xFFFFFFFF
		if line := op.PC >> mem.BlockBits; !w.haveLine || line != w.lastLine {
			w.vt += hier.WarmFetch(op.PC, w.vt)
			w.lastLine, w.haveLine = line, true
		}
		switch op.Class {
		case isa.Load:
			w.vt += hier.WarmLoad(op.PC, op.Addr, w.vt)
		case isa.Store:
			w.vt += hier.WarmStore(op.PC, op.Addr, w.vt)
		case isa.Branch:
			pred.OnBranch(op.PC, op.Taken, op.Target())
			if op.Taken {
				w.haveLine = false
			}
		}
	}
	return done
}

// runSampled executes a Spec in sampled mode. Called from Run with Ops and
// Warmup already normalized.
func runSampled(s Spec) (Result, error) {
	sp := s.Sampling.normalized()
	if err := sp.validate(); err != nil {
		return Result{}, err
	}
	if s.TraceSink != nil {
		return Result{}, fmt.Errorf("sim: pipeline tracing requires full fidelity; Sampling and TraceSink are mutually exclusive")
	}
	tr := s.Trace
	if tr == nil {
		var err error
		tr, err = SharedTrace(s.Workload, s.Warmup+s.Ops, s.Seed)
		if err != nil {
			return Result{}, err
		}
	}

	target := s.Warmup + s.Ops
	if target > tr.Len() {
		target = tr.Len()
	}
	warm := s.Warmup
	if warm > target {
		warm = target
	}
	region := target - warm
	if region < sp.DetailOps {
		return Result{}, fmt.Errorf("sim: %s/%s measured region (%d ops) smaller than one detailed window (%d); shrink Sampling.DetailOps or run full fidelity",
			s.Model, tr.Name, region, sp.DetailOps)
	}

	memCfg := mem.DefaultConfig()
	if s.MemCfg != nil {
		memCfg = *s.MemCfg
	}
	hier := getHierarchy(memCfg)
	pred := bpred.NewPredictor()

	// The run-level warmup is replayed functionally in its entirety: it
	// exists to warm exactly the state functional warming maintains. Until
	// the first window measures real CPI the virtual clock ticks 1 cycle
	// per op — warmup gap cycles are never part of the estimate, and DRAM
	// backlog dynamics are robust to the base rate.
	w := &warmer{rd: tr.Reader(), hier: hier, pred: pred, fp: 1 << 32}
	warmInstrs := uint64(w.replay(warm))

	var (
		ipcs         []float64
		detailInstr  uint64
		detailCycles uint64
		gapOps       uint64
		prefixOps    uint64
		dynSum       float64
		cpiSum       [ptrace.NumBuckets]uint64
		energySum    = map[string]float64{}
		ffJumps      uint64
		ffSkipped    uint64
	)
	// One accountant serves every window: the per-window model rebuild
	// re-registers its structures after a Rewind, so the final window leaves
	// the same registrations a fresh accountant would hold.
	acct := energy.NewAccountant()
	// DRAM backlog payments before the measured region starts are warmup,
	// not estimate.
	prefixStall := hier.Warm.DRAMStall

	// Stratified placement: one detailed window per period, at a
	// deterministic pseudo-random offset within it. A fixed offset aliases
	// with workload phase structure (the generator switches kernels about
	// every 2048 ops, so e.g. a 4096-op period would sample the same phase
	// every time); a per-period offset drawn from a seed-keyed xorshift
	// breaks the resonance while keeping runs byte-reproducible.
	rng := uint64(s.Seed)*0x9E3779B97F4A7C15 + 0x1234567

	pos := warm
	for pstart := warm; target-pstart >= sp.DetailOps; pstart += sp.Period {
		span := min(sp.Period, target-pstart) // last stratum may be short
		if span < sp.DetailOps {
			break
		}
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		wstart := pstart + int(rng%uint64(span-sp.DetailOps+1))
		if wstart > pos {
			w.seek(pos)
			n := uint64(w.replay(wstart - pos))
			warmInstrs += n
			gapOps += n
			pos = wstart
		}
		// The window's model starts a fresh clock at 0: rebase the DRAM
		// backlog into the new clock, clear the MSHR occupancy a clock
		// restart invalidates, keep everything warming maintains.
		hier.ResetTiming(w.vt)
		acct.Rewind()
		c, _, err := build(s, tr, wstart, pred, hier, acct)
		if err != nil {
			return Result{}, err
		}
		ev, _ := c.(eventDriven)
		if s.DisableFastForward || noFFEnv {
			ev = nil
		}
		var cyc0 int64
		var dyn0 float64
		var commit0 uint64
		var cpi0 [ptrace.NumBuckets]uint64
		pt, _ := c.(pipeTracer)
		j, sk := drive(c, ev, uint64(sp.WarmOps), uint64(sp.DetailOps), func() {
			cyc0 = c.Now()
			dyn0 = acct.DynamicEnergy()
			commit0 = c.Committed()
			if pt != nil {
				cpi0 = pt.CPIStack().Counts
			}
		})
		ffJumps += j
		ffSkipped += sk
		if c.Committed() < uint64(sp.DetailOps) && !c.Done() {
			return Result{}, fmt.Errorf("sim: %s/%s sampled window at op %d exceeded cycle cap at %d committed",
				s.Model, tr.Name, wstart, c.Committed())
		}
		if pt != nil {
			// Same CPI-stack invariant as a full run, held per window.
			if err := pt.CPIStack().Check(uint64(c.Now())); err != nil {
				return Result{}, fmt.Errorf("sim: %s/%s sampled window at op %d: %w", s.Model, tr.Name, wstart, err)
			}
			cts := pt.CPIStack().Counts
			for b := range cts {
				cpiSum[b] += cts[b] - cpi0[b]
			}
		}
		simulatedCycles.Add(uint64(c.Now()))
		wi := c.Committed() - commit0
		wc := uint64(c.Now() - cyc0)
		if wi == 0 || wc == 0 {
			return Result{}, fmt.Errorf("sim: %s/%s sampled window at op %d measured nothing (detail_ops %d, warm_ops %d)",
				s.Model, tr.Name, wstart, sp.DetailOps, sp.WarmOps)
		}
		detailInstr += wi
		detailCycles += wc
		prefixOps += commit0
		dynSum += acct.DynamicEnergy() - dyn0
		ipcs = append(ipcs, float64(wi)/float64(wc))
		acct.AccumulateEnergy(energySum)

		// The gap resumes on the window's final clock (DRAM stamps are in
		// window time after the rebase above), with the virtual rate set to
		// the running pooled CPI of every window so far.
		w.vt = c.Now()
		w.setCPI(detailCycles, detailInstr)

		// Resume warming after the last *committed* op (next iteration warms
		// forward from here). The handful of ops fetched but still in
		// flight when the window closed are replayed again — double-training
		// a few predictor/cache entries, a second-order effect the
		// cross-validation bound covers.
		pos = wstart + int(c.Committed())
	}

	// Warm the tail so its ops (and any DRAM backlog payment that falls
	// there) are part of the gap estimate.
	if pos < target {
		w.seek(pos)
		n := uint64(w.replay(target - pos))
		warmInstrs += n
		gapOps += n
	}
	regionStall := hier.Warm.DRAMStall - prefixStall

	n := len(ipcs)
	pooled := float64(detailInstr) / float64(detailCycles)
	var mean, ci float64
	for _, v := range ipcs {
		mean += v
	}
	mean /= float64(n)
	if n > 1 {
		var ss float64
		for _, v := range ipcs {
			ss += (v - mean) * (v - mean)
		}
		ci = 1.96 * math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
	}
	// Hybrid estimate: measured window cycles, plus every non-measured op
	// (warmed gaps and the windows' pipeline-warm prefixes) priced at the
	// final pooled CPI, plus the weighted DRAM backlog payments the warmed
	// reference stream triggered inside the region (see mem.DRAM.WarmDemand
	// and stallChargeNum — far too episodic for window sampling alone to
	// catch).
	gapCycles := uint64(math.Round(float64(gapOps+prefixOps)/pooled)) + regionStall*stallChargeNum/stallChargeDen
	estCycles := detailCycles + gapCycles
	ipc := float64(region) / float64(estCycles)
	scale := float64(region) / float64(detailInstr)

	reg := stats.NewRegistry()
	reg.Counter("sampled.windows", uint64(n))
	reg.Counter("sampled.detail_instructions", detailInstr)
	reg.Counter("sampled.detail_cycles", detailCycles)
	reg.Counter("sampled.gap_cycles", gapCycles)
	reg.Counter("sampled.warm_instructions", warmInstrs)
	reg.Counter("sampled.est_cycles", estCycles)
	reg.Gauge("sampled.ipc", ipc)
	reg.Gauge("sampled.ipc_window_pooled", pooled)
	reg.Gauge("sampled.ipc_window_mean", mean)
	reg.Gauge("sampled.ipc_ci95", ci)
	reg.SetRatio("sampled.detail_fraction", float64(detailInstr), float64(region))
	reg.Counter("sampled.ff.jumps", ffJumps)
	reg.Counter("sampled.ff.skipped_cycles", ffSkipped)
	for b, name := range ptrace.BucketNames() {
		reg.SetRatio("sampled.cpi."+name, float64(cpiSum[b]), float64(detailCycles))
	}
	ws := hier.Warm
	reg.Counter("sampled.warm.fetches", ws.Fetches)
	reg.Counter("sampled.warm.loads", ws.Loads)
	reg.Counter("sampled.warm.stores", ws.Stores)
	reg.Counter("sampled.warm.l1i_misses", ws.L1IMisses)
	reg.Counter("sampled.warm.l1d_misses", ws.L1DMisses)
	reg.Counter("sampled.warm.l2_misses", ws.L2Misses)
	reg.Counter("sampled.warm.dram_stall_cycles", ws.DRAMStall)

	// Extrapolate energy to the region: dynamic scales with instructions,
	// static with the estimated cycle count (itself ∝ instructions at the
	// pooled IPC). EnergyParts scale the summed per-window breakdowns.
	dyn := dynSum * scale
	static := acct.StaticEnergyOver(estCycles)
	parts := make(map[string]float64, len(energySum))
	for k, v := range energySum {
		parts[k] = v * scale
	}
	res := Result{
		Model:        s.Model,
		Workload:     tr.Name,
		Instructions: uint64(region),
		Cycles:       estCycles,
		IPC:          ipc,
		DynamicPJ:    dyn,
		StaticPJ:     static,
		TotalPJ:      dyn + static,
		AreaMM2:      acct.Area(),
		Extra:        reg.Flatten(),
		Metrics:      reg.Metrics(),
		EnergyParts:  parts,
		AreaParts:    acct.AreaBreakdown(),
		Sampled: &SampledStats{
			Windows:        n,
			DetailInstrs:   detailInstr,
			DetailCycles:   detailCycles,
			GapCycles:      gapCycles,
			DRAMStall:      regionStall,
			WarmInstrs:     warmInstrs,
			IPC:            ipc,
			IPCPooled:      pooled,
			IPCMean:        mean,
			IPCCI95:        ci,
			EstCycles:      estCycles,
			DetailFraction: float64(detailInstr) / float64(region),
		},
	}
	if region > 0 {
		res.EnergyPerInst = res.TotalPJ / float64(region)
	}
	if res.EnergyPerInst > 0 {
		res.PerfPerEnergy = res.IPC / (res.EnergyPerInst / 1000) // IPC per nJ/inst
	}
	bpred.Recycle(pred)
	putHierarchy(hier)
	return res, nil
}
