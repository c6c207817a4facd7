// Package dse is the design-space-exploration layer on top of the sim
// harness: it expands a parameter grid (model set × SpecInO geometry ×
// structure sizes × workloads) into deterministic simulation cells, runs
// them through the sharded cell runner behind a fingerprint-keyed result
// cache, merges the per-cell manifests into one compare-able sweep
// manifest, and reduces the results to IPC × energy Pareto frontiers.
// The casino-server HTTP service (engine.go, server.go) is the
// production-traffic surface; `casino-bench sweep` drives the same code
// serially for gating.
package dse

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"
	"unsafe"

	"casino/internal/core"
	"casino/internal/ino"
	"casino/internal/isa"
	"casino/internal/ooo"
	"casino/internal/sim"
	"casino/internal/slice"
	"casino/internal/specino"
	"casino/internal/workload"
)

// Grid is a sweep request: the cross product of every listed dimension,
// restricted per model to the dimensions that model actually has (an InO
// core has no ROB, so the ROB axis collapses to a single default point for
// it — the expansion never emits duplicate cells). Empty dimension slices
// mean "the model's Table I default".
type Grid struct {
	Models    []string `json:"models"`
	Workloads []string `json:"workloads"`

	Ops    int   `json:"ops,omitempty"`    // measured instructions (default sim.DefaultOps)
	Warmup int   `json:"warmup,omitempty"` // warm-up instructions (default sim.DefaultWarmup)
	Seed   int64 `json:"seed,omitempty"`   // workload generation seed

	// Geometries are SpecInO [WS, SO] window points, applied to the
	// casino and specino models.
	Geometries [][2]int `json:"geometries,omitempty"`
	// IQSizes sweeps the issue-queue capacity (every model; for the slice
	// cores it sizes the A/B/Y queues together).
	IQSizes []int `json:"iq_sizes,omitempty"`
	// SBSizes sweeps the store buffer / store queue capacity.
	SBSizes []int `json:"sb_sizes,omitempty"`
	// ROBSizes sweeps the reorder-buffer capacity (casino, ooo, ooo-nolq).
	ROBSizes []int `json:"rob_sizes,omitempty"`
	// OSCAWidths sweeps the OSCA filter size (casino only; power of two).
	OSCAWidths []int `json:"osca_widths,omitempty"`

	// Sampling, when non-nil, runs the sweep sampled-first: every cell
	// executes at sampled fidelity (zero-valued geometry fields select the
	// sim defaults), then the per-workload Pareto frontier plus every
	// CI-overlap candidate is promoted and re-run at full fidelity. The
	// final Pareto points come exclusively from the promoted full-fidelity
	// cells; the merged manifest carries both phases (sampled cells under
	// "@sampled" keys).
	Sampling *sim.Sampling `json:"sampling,omitempty"`
}

// Bounds on what one grid may ask of the service. Each admits every grid
// in the tree with room to spare; a grid past one is refused before it is
// expanded (HTTP 400 from casino-server) instead of being allocated.
const (
	// maxTraceBytes caps the trace a grid asks for, ops + warmup, stated
	// as trace memory: 64 MiB of 32-byte ops is 2,097,152 ops per trace.
	maxTraceBytes = 64 << 20
	maxTraceOps   = maxTraceBytes / int(unsafe.Sizeof(isa.MicroOp{}))
	// maxQueueSize caps every iq_sizes, sb_sizes, rob_sizes and
	// osca_widths value: each sizes a structure the model allocates.
	maxQueueSize = 1024
	// maxWindow caps both members of a geometry point [WS, SO].
	maxWindow = 64
	// maxGridCells caps the product of the axis lengths (workloads ×
	// models × geometries × each size axis), an upper bound on the number
	// of cells the grid expands to.
	maxGridCells = 4096
)

// dims says which sweep axes a model has. Inapplicable axes collapse to
// the single default point during expansion.
type dims struct{ geom, iq, sb, rob, osca bool }

func modelDims(model string) (dims, bool) {
	switch model {
	case sim.ModelCASINO:
		return dims{geom: true, iq: true, sb: true, rob: true, osca: true}, true
	case sim.ModelSpecInO:
		return dims{geom: true, iq: true}, true
	case sim.ModelInO:
		return dims{iq: true, sb: true}, true
	case sim.ModelOoO, sim.ModelOoONoLQ:
		return dims{iq: true, sb: true, rob: true}, true
	case sim.ModelLSC, sim.ModelFreeway:
		return dims{iq: true, sb: true}, true
	}
	return dims{}, false
}

// normalized returns the grid with ops/warmup defaulting applied, exactly
// mirroring sim.Options (so a sweep cell and a figure run of the same spec
// replay the same trace).
func (g Grid) normalized() Grid {
	if g.Ops <= 0 {
		g.Ops = sim.DefaultOps
	}
	if g.Warmup == 0 {
		g.Warmup = sim.DefaultWarmup
	}
	if g.Warmup < 0 {
		g.Warmup = 0
	}
	return g
}

// Validate checks the grid without expanding it: model and workload names
// must be known, dimension values positive, geometry points must satisfy
// WS >= SO >= 1, and OSCA widths must be powers of two. The run length,
// every axis value and the cell count must stay within the package caps.
func (g Grid) Validate() error {
	if len(g.Models) == 0 {
		return fmt.Errorf("dse: grid lists no models")
	}
	if len(g.Workloads) == 0 {
		return fmt.Errorf("dse: grid lists no workloads")
	}
	if n := g.normalized(); n.Ops > maxTraceOps || n.Warmup > maxTraceOps-n.Ops {
		return fmt.Errorf("dse: ops + warmup = %d + %d: a trace may hold at most %d ops (%d MiB)",
			n.Ops, n.Warmup, maxTraceOps, maxTraceBytes>>20)
	}
	cells := 1
	for _, l := range []int{len(g.Workloads), len(g.Models), len(g.Geometries),
		len(g.IQSizes), len(g.SBSizes), len(g.ROBSizes), len(g.OSCAWidths)} {
		if cells *= max(l, 1); cells > maxGridCells {
			return fmt.Errorf("dse: grid spans more than %d cells (workloads × models × geometries × "+
				"iq_sizes × sb_sizes × rob_sizes × osca_widths)", maxGridCells)
		}
	}
	for _, m := range g.Models {
		if _, ok := modelDims(m); !ok {
			return fmt.Errorf("dse: unknown model %q (known: %v)", m, sim.Models())
		}
	}
	for _, w := range g.Workloads {
		if _, err := workload.ByName(w); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
	}
	for _, geo := range g.Geometries {
		if geo[0] < 1 || geo[1] < 1 || geo[0] < geo[1] || geo[0] > maxWindow {
			return fmt.Errorf("dse: geometries value [%d,%d]: need %d >= WS >= SO >= 1", geo[0], geo[1], maxWindow)
		}
	}
	for name, vals := range map[string][]int{
		"iq_sizes": g.IQSizes, "sb_sizes": g.SBSizes, "rob_sizes": g.ROBSizes,
	} {
		for _, v := range vals {
			if v < 1 || v > maxQueueSize {
				return fmt.Errorf("dse: %s value %d: must be in [1, %d]", name, v, maxQueueSize)
			}
		}
	}
	for _, v := range g.OSCAWidths {
		if v < 1 || v&(v-1) != 0 || v > maxQueueSize {
			return fmt.Errorf("dse: osca_widths value %d: must be a power of two in [1, %d]", v, maxQueueSize)
		}
	}
	if g.Sampling != nil {
		if err := g.Sampling.Check(); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
	}
	return nil
}

// Cell is one expanded design point. Zero-valued axes mean "model
// default / axis not applicable"; the key, fingerprint and spec builders
// all treat them as absent.
type Cell struct {
	Workload string `json:"workload"`
	Model    string `json:"model"`

	WS   int `json:"ws,omitempty"`
	SO   int `json:"so,omitempty"`
	IQ   int `json:"iq,omitempty"`
	SB   int `json:"sb,omitempty"`
	ROB  int `json:"rob,omitempty"`
	OSCA int `json:"osca,omitempty"`

	Ops    int   `json:"ops"`
	Warmup int   `json:"warmup"`
	Seed   int64 `json:"seed"`

	// Sampling marks the cell's fidelity: nil runs the full model over the
	// whole region, non-nil runs sampled simulation with this (normalized)
	// geometry. Fidelity is part of the cell's identity — key, fingerprint
	// and cache entries of the two fidelities never collide.
	Sampling *sim.Sampling `json:"sampling,omitempty"`
}

// Promote returns the cell's full-fidelity twin: identical axes with the
// sampling geometry stripped. Promoting a full-fidelity cell is a no-op.
func (c Cell) Promote() Cell {
	c.Sampling = nil
	return c
}

// Key is the cell's stable identity within a sweep:
// "workload/model[axis…]" with the overridden axes in fixed order. It is
// the manifest metric prefix and the provenance key, so it deliberately
// excludes ops/warmup/seed — those are sweep-level spec fields that
// Compare already gates.
func (c Cell) Key() string {
	var parts []string
	add := func(name string, v int) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s%d", name, v))
		}
	}
	add("ws", c.WS)
	add("so", c.SO)
	add("iq", c.IQ)
	add("sb", c.SB)
	add("rob", c.ROB)
	add("osca", c.OSCA)
	key := c.Workload + "/" + c.Model
	if len(parts) > 0 {
		key += "[" + strings.Join(parts, ",") + "]"
	}
	if c.Sampling != nil {
		// Fidelity is identity: a sampled estimate of a design point and
		// its full-fidelity run are different measurements and must never
		// share a metric prefix or provenance key.
		key += "@sampled"
	}
	return key
}

// SpecFingerprint hashes the cell's full spec identity — key plus the
// run-window parameters — with FNV-1a. Together with the trace
// fingerprint it keys the result cache and the manifest provenance.
func (c Cell) SpecFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|ops=%d|warmup=%d|seed=%d", c.Key(), c.Ops, c.Warmup, c.Seed)
	if c.Sampling != nil {
		// The key only says "@sampled"; the fingerprint pins the exact
		// normalized geometry so two different samplings of the same design
		// point never share a cache entry.
		sp := c.Sampling.Normalized()
		fmt.Fprintf(h, "|sampling=%d/%d/%d", sp.Period, sp.DetailOps, sp.WarmOps)
	}
	return h.Sum64()
}

// CacheKey combines the spec fingerprint with the trace fingerprint: two
// cells collide only when they would simulate the identical machine over
// the identical instruction stream, in which case sharing the result is
// exactly right.
func (c Cell) CacheKey(traceFP uint64) string {
	return fmt.Sprintf("%016x/%016x", c.SpecFingerprint(), traceFP)
}

// Spec builds the sim.Spec this cell runs, applying the overridden axes
// to the model's Table I default configuration and validating the result
// where the model supports it.
func (c Cell) Spec() (sim.Spec, error) {
	s := sim.Spec{
		Model:    c.Model,
		Workload: c.Workload,
		Ops:      c.Ops,
		Warmup:   c.Warmup,
		Seed:     c.Seed,
	}
	if c.Sampling != nil {
		sp := c.Sampling.Normalized()
		s.Sampling = &sp
	}
	switch c.Model {
	case sim.ModelCASINO:
		cfg := core.DefaultConfig()
		if c.WS > 0 {
			cfg.WS, cfg.SO = c.WS, c.SO
		}
		if c.IQ > 0 {
			cfg.IQSize = c.IQ
		}
		if c.SB > 0 {
			cfg.SQSize = c.SB
		}
		if c.ROB > 0 {
			cfg.ROBSize = c.ROB
		}
		if c.OSCA > 0 {
			cfg.OSCASize = c.OSCA
		}
		if err := cfg.Validate(); err != nil {
			return sim.Spec{}, fmt.Errorf("dse: cell %s: %w", c.Key(), err)
		}
		s.CasinoCfg = &cfg
	case sim.ModelSpecInO:
		ws, so := c.WS, c.SO
		if ws == 0 {
			ws, so = 2, 1
		}
		cfg := specino.DefaultConfig(ws, so)
		if c.IQ > 0 {
			cfg.IQSize = c.IQ
		}
		if err := cfg.Validate(); err != nil {
			return sim.Spec{}, fmt.Errorf("dse: cell %s: %w", c.Key(), err)
		}
		s.SpecInOCfg = &cfg
	case sim.ModelInO:
		cfg := ino.DefaultConfig()
		if c.IQ > 0 {
			cfg.IQSize = c.IQ
		}
		if c.SB > 0 {
			cfg.SBSize = c.SB
		}
		s.InOCfg = &cfg
	case sim.ModelOoO, sim.ModelOoONoLQ:
		cfg := ooo.DefaultConfig()
		if c.IQ > 0 {
			cfg.IQSize = c.IQ
		}
		if c.SB > 0 {
			cfg.SQSize = c.SB
		}
		if c.ROB > 0 {
			cfg.ROBSize = c.ROB
		}
		s.OoOCfg = &cfg
	case sim.ModelLSC, sim.ModelFreeway:
		kind := slice.LSC
		if c.Model == sim.ModelFreeway {
			kind = slice.Freeway
		}
		cfg := slice.DefaultConfig(kind)
		if c.IQ > 0 {
			cfg.AQSize, cfg.BQSize, cfg.YQSize = c.IQ, c.IQ, c.IQ
		}
		if c.SB > 0 {
			cfg.SBSize = c.SB
		}
		s.SliceCfg = &cfg
	default:
		return sim.Spec{}, fmt.Errorf("dse: cell %s: unknown model %q", c.Key(), c.Model)
	}
	return s, nil
}

// Expand validates the grid and expands it into cells in a deterministic
// order: workload-major, then model in grid order, then geometry, IQ, SB,
// ROB, OSCA — each axis restricted to the models that have it and
// deduplicated, so the cell list (and therefore cache keys, manifest
// provenance and shard ordering) is a pure function of the grid. A grid
// with Sampling set expands to sampled-fidelity cells (phase one of a
// sampled-first sweep); promotion derives the full-fidelity re-runs.
func (g Grid) Expand() ([]Cell, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.normalized()

	// Each axis contributes its values, or the single "default" zero
	// point when the list is empty or the model lacks the axis.
	axis := func(vals []int, has bool) []int {
		if !has || len(vals) == 0 {
			return []int{0}
		}
		return vals
	}
	var cells []Cell
	seen := map[string]bool{}
	for _, app := range n.Workloads {
		for _, model := range n.Models {
			d, _ := modelDims(model)
			geoms := [][2]int{{0, 0}}
			if d.geom && len(n.Geometries) > 0 {
				geoms = n.Geometries
			}
			for _, geo := range geoms {
				for _, iq := range axis(n.IQSizes, d.iq) {
					for _, sb := range axis(n.SBSizes, d.sb) {
						for _, rob := range axis(n.ROBSizes, d.rob) {
							for _, osca := range axis(n.OSCAWidths, d.osca) {
								c := Cell{
									Workload: app, Model: model,
									WS: geo[0], SO: geo[1],
									IQ: iq, SB: sb, ROB: rob, OSCA: osca,
									Ops: n.Ops, Warmup: n.Warmup, Seed: n.Seed,
								}
								if n.Sampling != nil {
									sp := n.Sampling.Normalized()
									c.Sampling = &sp
								}
								if key := c.Key(); !seen[key] {
									seen[key] = true
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	// Every cell must build a valid spec; rejecting here turns a bad grid
	// into a submit-time 400 instead of N runtime cell failures.
	for _, c := range cells {
		if _, err := c.Spec(); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// ReadGrid decodes a sweep grid from JSON, rejecting unknown fields so a
// typo'd axis name fails loudly instead of silently sweeping nothing.
func ReadGrid(r io.Reader) (Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("dse: decode grid: %w", err)
	}
	return g, nil
}

// ReadGridFile loads a grid from a JSON file.
func ReadGridFile(path string) (Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return Grid{}, err
	}
	defer f.Close()
	g, err := ReadGrid(f)
	if err != nil {
		return Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// sortedWorkloads returns the grid's distinct workloads in sorted order.
func (g Grid) sortedWorkloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range g.Workloads {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}
