package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"

	"casino/internal/dse"
	"casino/internal/sim"
)

// References are the simulated outputs recorded from the program at the
// commit that introduced the benchmark. A performance change must leave
// them exactly as they are; any difference fails the operation that
// produced it.
type References struct {
	// Cells maps refKey(workload, trace seed, app, model) to the batch
	// cell's simulated cycles and committed micro-ops.
	Cells map[string]CellRef `json:"cells"`
	// Frontiers maps frontierKey(grid, grid seed) to frontierHash of the
	// sweep's Pareto frontiers.
	Frontiers map[string]string `json:"frontiers"`
}

// CellRef is one batch cell's reference output.
type CellRef struct {
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
}

// FrontierPoint is a frontier point reduced to what identifies it: cell
// key, IPC and energy per instruction, compared exactly.
type FrontierPoint struct {
	Cell          string  `json:"cell"`
	IPC           float64 `json:"ipc"`
	EnergyPerInst float64 `json:"epi"`
}

func frontierKey(gridID string, gridSeed int64) string {
	return fmt.Sprintf("%s/seed%d", gridID, gridSeed)
}

func frontierOf(byWorkload map[string][]dse.Point) map[string][]FrontierPoint {
	out := make(map[string][]FrontierPoint, len(byWorkload))
	for w, pts := range byWorkload {
		fp := make([]FrontierPoint, len(pts))
		for i, p := range pts {
			fp[i] = FrontierPoint{Cell: p.Cell, IPC: p.IPC, EnergyPerInst: p.EnergyPerInst}
		}
		out[w] = fp
	}
	return out
}

// frontierHash fingerprints per-workload frontiers exactly: FNV-1a over
// their JSON (map keys sorted, floats in shortest round-trip form).
func frontierHash(f map[string][]FrontierPoint) string {
	data, err := json.Marshal(f)
	if err != nil {
		panic(err) // plain strings and finite floats always encode
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

func loadReferences(path string) (*References, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	var r References
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("references %s: %w", path, err)
	}
	return &r, nil
}

// recordReferences runs every batch cell of every trace seed in the pool
// and every catalogue grid of every grid seed in the pool, in process, and
// writes their outputs to path.
func recordReferences(path string) error {
	refs := References{Cells: map[string]CellRef{}, Frontiers: map[string]string{}}
	for _, name := range []string{wlStallHeavy, wlCommitDense} {
		w := batchWorkloads[name]
		for s := int64(1); s <= traceSeedPool; s++ {
			var cells []sim.Cell
			for _, app := range w.Apps {
				for _, m := range matrixModels() {
					c := batchCell{App: app, TraceSeed: s, Model: m}
					cells = append(cells, sim.Cell{App: app, Model: m.Label, Spec: c.spec()})
				}
			}
			results := sim.RunCells(cells, 0, nil, nil)
			if err := sim.JoinCellErrors(results); err != nil {
				return err
			}
			for _, r := range results {
				refs.Cells[refKey(name, s, r.Cell.App, r.Cell.Model)] = CellRef{r.Result.Cycles, r.Result.Instructions}
			}
			sim.ResetSharedTraces()
			fmt.Fprintf(os.Stderr, "recorded %s trace seed %d\n", name, s)
		}
	}
	fams := catalogue()
	for s := int64(1); s <= svcSeedPool; s++ {
		for f, variants := range fams {
			for v, g := range variants {
				g.Seed = s
				_, points, err := dse.RunGrid(g, 0)
				if err != nil {
					return fmt.Errorf("grid %s: %w", step{Family: f, Variant: v}.gridID(), err)
				}
				key := frontierKey(step{Family: f, Variant: v}.gridID(), s)
				refs.Frontiers[key] = frontierHash(frontierOf(dse.FrontierByWorkload(points)))
			}
		}
		fmt.Fprintf(os.Stderr, "recorded sweep grids, grid seed %d\n", s)
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
