package dse

import (
	"fmt"

	"casino/internal/manifest"
	"casino/internal/sim"
)

// SweepStats counts the sampled-first execution of a sweep; zero-valued
// when the grid ran at full fidelity throughout.
type SweepStats struct {
	SampledCells  int `json:"sampled_cells,omitempty"`
	PromotedCells int `json:"promoted_cells,omitempty"`
}

// RunGrid executes the grid synchronously on a pool of `workers`
// goroutines (1 = strictly serial, <= 0 = all CPUs) with no result cache,
// returning the merged sweep manifest and every design point. It is the
// gating path: `casino-bench sweep -workers 1` runs the exact cells a
// server sweep shards, and the manifests must be byte-identical.
func RunGrid(g Grid, workers int) (*manifest.Manifest, []Point, error) {
	return RunGridProgress(g, workers, nil)
}

// RunGridProgress is RunGrid with a progress observer: onCell, when
// non-nil, is called after each completed cell with the running done
// count and the total (calls are serialized, in completion order; on a
// sampled-first sweep the total grows once the promotion set is known).
// The observer sees wall-clock pacing only — the returned manifest is
// byte-identical with or without it.
func RunGridProgress(g Grid, workers int, onCell func(done, total int)) (*manifest.Manifest, []Point, error) {
	m, pts, _, err := RunGridStats(g, workers, onCell)
	return m, pts, err
}

// RunGridStats is RunGridProgress plus the sampled-first execution
// counters. A full-fidelity grid runs in one phase. A grid with Sampling
// set runs two: every cell at sampled fidelity, then the PromoteSet
// survivors (per-workload Pareto frontier plus CI-overlap candidates)
// re-run at full fidelity. The returned points come exclusively from the
// final full-fidelity phase — a sampled estimate can steer the search but
// never stands in a reported frontier — while the manifest merges both
// phases (sampled cells under their "@sampled" keys).
func RunGridStats(g Grid, workers int, onCell func(done, total int)) (*manifest.Manifest, []Point, SweepStats, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, nil, SweepStats{}, err
	}
	done, total := 0, len(cells)
	observe := func(sim.CellResult) {
		done++
		if onCell != nil {
			onCell(done, total)
		}
	}
	return runSweep(g.normalized(), cells, func(phase int, cells []Cell, _ map[string]uint64) ([]sim.Result, error) {
		if phase == phasePromoted {
			total += len(cells)
		}
		simCells, err := simCellsOf(cells)
		if err != nil {
			return nil, err
		}
		return resultsOf(sim.RunCells(simCells, workers, nil, observe))
	})
}

// Sweep phases, in execution order (and in pool priority order).
const (
	phaseGrid     = iota // every expanded cell, sampled on a sampled-first grid
	phasePromoted        // the PromoteSet survivors re-run at full fidelity
)

// phaseRunner executes one phase's cells and returns their results in
// cell order. traceFPs carries the fingerprint of every workload's trace.
type phaseRunner func(phase int, cells []Cell, traceFPs map[string]uint64) ([]sim.Result, error)

// runSweep is the one sweep driver behind RunGrid and the engine. It
// resolves every workload trace once (through the process-wide
// singleflight trace cache; the fingerprints key the result cache and the
// manifest provenance), runs the grid phase and, on a sampled-first grid,
// the promoted phase (always called, possibly with no cells), then merges
// both phases into the manifest. g must be normalized; cells is its
// expansion. Points come from the last phase only.
func runSweep(g Grid, cells []Cell, run phaseRunner) (*manifest.Manifest, []Point, SweepStats, error) {
	var stats SweepStats
	traceFPs := map[string]uint64{}
	for _, w := range g.sortedWorkloads() {
		tr, err := sim.SharedTrace(w, g.Warmup+g.Ops, g.Seed)
		if err != nil {
			return nil, nil, stats, fmt.Errorf("workload %s: %w", w, err)
		}
		traceFPs[w] = tr.Fingerprint()
	}

	results, err := run(phaseGrid, cells, traceFPs)
	if err != nil {
		return nil, nil, stats, err
	}
	points := make([]Point, len(results))
	for i, r := range results {
		points[i] = pointOf(cells[i], r)
	}

	allCells, allResults := cells, results
	if g.Sampling != nil {
		promoted := PromoteSet(points)
		full := make([]Cell, len(promoted))
		for i, idx := range promoted {
			full[i] = cells[idx].Promote()
		}
		stats = SweepStats{SampledCells: len(cells), PromotedCells: len(full)}
		fullResults, err := run(phasePromoted, full, traceFPs)
		if err != nil {
			return nil, nil, stats, err
		}
		points = make([]Point, len(full))
		for i, r := range fullResults {
			points[i] = pointOf(full[i], r)
		}
		allCells = append(append([]Cell(nil), cells...), full...)
		allResults = append(append([]sim.Result(nil), results...), fullResults...)
	}

	m, err := MergeCells(allCells, allResults, traceFPs)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("merge: %w", err)
	}
	return m, points, stats, nil
}

// simCellsOf resolves each cell's spec into a sim.Cell indexed by its
// position in the phase.
func simCellsOf(cells []Cell) ([]sim.Cell, error) {
	simCells := make([]sim.Cell, len(cells))
	for i, c := range cells {
		spec, err := c.Spec()
		if err != nil {
			return nil, err
		}
		simCells[i] = sim.Cell{App: c.Workload, Model: c.Model, Index: i, Spec: spec}
	}
	return simCells, nil
}

// resultsOf unwraps positional cell results, failing with every failed
// cell named.
func resultsOf(cellResults []sim.CellResult) ([]sim.Result, error) {
	if err := sim.JoinCellErrors(cellResults); err != nil {
		return nil, err
	}
	results := make([]sim.Result, len(cellResults))
	for i, r := range cellResults {
		results[i] = r.Result
	}
	return results, nil
}
