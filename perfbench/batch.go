package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"casino/internal/sim"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// passStats is one timed pass over a batch matrix.
type passStats struct {
	wall      time.Duration
	cal       time.Duration // calibration kernel run right after the pass
	uops      uint64        // committed micro-ops, warm-up included
	cells     int
	lat       []time.Duration // per-cell sim.Run host time
	busy      map[string]float64
	famUops   map[string]uint64
	stepped   uint64 // simulated cycles minus fast-forwarded ones
	cycles    uint64 // simulated cycles, warm-up included
	skipped   uint64
	wakeups   uint64
	appCycles map[string][2]uint64 // app -> (skipped, total) cycles
}

// mips is the pass's throughput in reference seconds; rawMIPS in wall
// seconds.
func (p passStats) mips() float64    { return float64(p.uops) / refSeconds(p.wall, p.cal) / 1e6 }
func (p passStats) rawMIPS() float64 { return float64(p.uops) / p.wall.Seconds() / 1e6 }

// runBatch measures a full-fidelity matrix: set up (trace generation) a few
// times, run one untimed pass to fill caches and pools, then run timed
// passes until the time is up. A traced run splits its time: the first half
// untraced, the second under the CPU profiler, and reports per-layer
// numbers from the second half.
func runBatch(b *bench, w batchWorkload) error {
	n := batchOps + batchWarmup
	var setups, gens []float64
	for i := 0; i < setupRepeats; i++ {
		sim.ResetSharedTraces()
		start := time.Now()
		id, end := b.rec.Begin("setup", fmt.Sprintf("setup-%d", i), 0)
		for _, ts := range batchTraceSeeds(b.seed) {
			for _, app := range w.Apps {
				_, endGen := b.rec.Begin("sim.SharedTrace/"+app, fmt.Sprintf("setup-%d", i), id)
				if _, err := sim.SharedTrace(app, n, ts); err != nil {
					return fmt.Errorf("trace %s seed %d: %w", app, ts, err)
				}
				gens = append(gens, endGen().Dur().Seconds()*1e3)
			}
		}
		end()
		setups = append(setups, refSeconds(time.Since(start), calibrate()))
	}
	b.put("setup_s", median(setups))
	b.put("workload.generate_ms", median(gens))

	cells := batchCells(w, b.seed)
	if _, err := b.pass(w, cells, "warm"); err != nil {
		return err
	}
	measure := func(d time.Duration, tag string) ([]passStats, error) {
		var out []passStats
		deadline := time.Now().Add(d)
		for i := 0; len(out) == 0 || time.Now().Before(deadline); i++ {
			p, err := b.pass(w, cells, fmt.Sprintf("%s-%d", tag, i))
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	}

	if !b.trace {
		passes, err := measure(b.seconds, "pass")
		if err != nil {
			return err
		}
		b.putBatchEndToEnd(passes)
		b.checkClass(w, passes)
		return nil
	}
	plain, err := measure(b.seconds/2, "plain")
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := measure(b.seconds/2, "traced")
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	b.putBatchLayers(traced)
	b.put("trace.overhead", 1-median(mipsOf(traced, passStats.mips))/median(mipsOf(plain, passStats.mips)))
	b.checkClass(w, traced)
	return b.putCPU(prof.Bytes())
}

func mipsOf(passes []passStats, rate func(passStats) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = rate(p)
	}
	return out
}

// pass runs the matrix once through sim.RunCells at the default worker
// count, timing each sim.Run call, and checks every cell's simulated cycles
// and committed micro-ops against the reference. The calibration kernel
// runs right after it.
func (b *bench) pass(w batchWorkload, cells []batchCell, run string) (passStats, error) {
	simCells := make([]sim.Cell, len(cells))
	for i, c := range cells {
		simCells[i] = sim.Cell{App: c.App, Model: c.Model.Label, Index: i, Spec: c.spec()}
	}
	lat := make([]time.Duration, len(cells))
	start := time.Now()
	root, endPass := b.rec.Begin("pass", run, 0)
	results := sim.RunCells(simCells, 0, func(c sim.Cell) (sim.Result, error) {
		_, end := b.rec.Begin("sim.Run/"+cells[c.Index].Model.Family, run, root)
		res, err := sim.Run(c.Spec)
		lat[c.Index] = end().Dur()
		return res, err
	}, nil)
	endPass()
	p := passStats{
		wall:      time.Since(start),
		cal:       calibrate(),
		cells:     len(cells),
		lat:       lat,
		busy:      map[string]float64{},
		famUops:   map[string]uint64{},
		appCycles: map[string][2]uint64{},
	}
	for i, r := range results {
		c := cells[i]
		key := refKey(w.Name, c.TraceSeed, c.App, c.Model.Label)
		b.attempt()
		if r.Err != nil {
			b.fail("%s: %v", key, r.Err)
			continue
		}
		res := r.Result
		if ref, ok := b.refs.Cells[key]; !ok {
			b.fail("%s: no reference", key)
		} else if ref.Cycles != res.Cycles || ref.Instructions != res.Instructions {
			b.fail("%s: simulated %d cycles / %d micro-ops, reference %d / %d",
				key, res.Cycles, res.Instructions, ref.Cycles, ref.Instructions)
		}
		uops := res.Instructions + batchWarmup
		total, skipped := uint64(res.Extra["cpi.cycles"]), uint64(res.Extra["ff.skipped_cycles"])
		p.uops += uops
		p.busy[c.Model.Family] += lat[i].Seconds()
		p.famUops[c.Model.Family] += uops
		p.cycles += total
		p.skipped += skipped
		p.stepped += total - skipped
		p.wakeups += uint64(res.Extra["evq.wakeups"])
		ac := p.appCycles[c.App]
		p.appCycles[c.App] = [2]uint64{ac[0] + skipped, ac[1] + total}
	}
	return p, nil
}

func (b *bench) putBatchEndToEnd(passes []passStats) {
	var lat, cps []float64
	for _, p := range passes {
		for _, l := range p.lat {
			lat = append(lat, refSeconds(l, p.cal))
		}
		cps = append(cps, float64(p.cells)/refSeconds(p.wall, p.cal))
	}
	b.put("sim_mips", median(mipsOf(passes, passStats.mips)))
	b.put("cells_per_s", median(cps))
	b.putLatency(lat)
	raw := mipsOf(passes, passStats.rawMIPS)
	b.props["raw_sim_mips"] = median(raw)
	for _, p := range passes {
		b.timing = append(b.timing, [2]float64{p.wall.Seconds(), p.cal.Seconds()})
	}
	b.note("%d timed passes of %d cells; wall-clock pass sim_mips min %.3f, quartiles %.3f / %.3f / %.3f, max %.3f",
		len(passes), passes[0].cells, quantile(raw, 0), quantile(raw, 0.25), quantile(raw, 0.5), quantile(raw, 0.75), quantile(raw, 1))
}

func (b *bench) putBatchLayers(passes []passStats) {
	var lat []float64
	busy := map[string]float64{}
	uops := map[string]uint64{}
	for _, p := range passes {
		for _, l := range p.lat {
			lat = append(lat, l.Seconds())
		}
		for f, s := range p.busy {
			busy[f] += s
			uops[f] += p.famUops[f]
		}
	}
	for _, f := range modelFamilies {
		b.put("model."+f+".busy_s", busy[f]/float64(len(passes)))
		if busy[f] > 0 {
			b.put("model."+f+".kips", float64(uops[f])/busy[f]/1e3)
		}
	}
	// Simulated work is deterministic: every pass reads the same counts.
	p := passes[0]
	b.put("driver.stepped_cycles", float64(p.stepped))
	b.put("ff.coverage", float64(p.skipped)/float64(p.cycles))
	b.put("evq.wakeups_per_kcycle", 1e3*float64(p.wakeups)/float64(p.cycles))
	b.putLatency(lat)
}

// checkClass records the workload's measured fast-forward coverage, per
// app and overall, and flags the run when it leaves the workload's class.
func (b *bench) checkClass(w batchWorkload, passes []passStats) {
	p := passes[0]
	cov := float64(p.skipped) / float64(p.cycles)
	b.props["ff.coverage"] = cov
	b.note("ff.coverage %.3f (class range [%.2f, %.2f])", cov, w.MinFF, w.MaxFF)
	if cov < w.MinFF || cov > w.MaxFF {
		b.flag("%s: ff.coverage %.3f left the class range [%.2f, %.2f]", w.Name, cov, w.MinFF, w.MaxFF)
	}
	for _, app := range w.Apps {
		ac := p.appCycles[app]
		c := float64(ac[0]) / float64(ac[1])
		b.props["ff.coverage."+app] = c
		if c < w.MinFF || c > w.MaxFF {
			b.flag("%s: app %s ff.coverage %.3f left the class range [%.2f, %.2f]", w.Name, app, c, w.MinFF, w.MaxFF)
		}
	}
}
