package dse

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"casino/internal/sim"
	"casino/internal/workload"
)

func TestExpandDeterministicAndDeduplicated(t *testing.T) {
	g := Grid{
		Models:     []string{"casino", "specino", "ino"},
		Workloads:  []string{"mcf", "milc"},
		Ops:        20000,
		Warmup:     5000,
		Seed:       1,
		Geometries: [][2]int{{2, 1}, {4, 2}},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per workload: casino×2 geometries + specino×2 geometries + ino×1
	// (no geometry axis) = 5; two workloads = 10.
	if len(cells) != 10 {
		t.Fatalf("got %d cells, want 10: %+v", len(cells), cells)
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.Key()] {
			t.Errorf("duplicate cell %s", c.Key())
		}
		keys[c.Key()] = true
		if c.Ops != 20000 || c.Warmup != 5000 {
			t.Errorf("cell %s did not inherit run window: %+v", c.Key(), c)
		}
	}
	if !keys["mcf/ino"] {
		t.Errorf("ino cell should collapse the geometry axis: %v", keys)
	}
	if !keys["mcf/casino[ws4,so2]"] || !keys["milc/specino[ws2,so1]"] {
		t.Errorf("missing expected geometry cells: %v", keys)
	}

	again, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("expansion is not deterministic")
	}
}

func TestExpandDefaultsRunWindow(t *testing.T) {
	g := Grid{Models: []string{"ino"}, Workloads: []string{"mcf"}}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Ops != sim.DefaultOps || cells[0].Warmup != sim.DefaultWarmup {
		t.Errorf("defaults not applied: %+v", cells[0])
	}
}

func TestGridValidation(t *testing.T) {
	bad := []Grid{
		{Workloads: []string{"mcf"}},                                                           // no models
		{Models: []string{"casino"}},                                                           // no workloads
		{Models: []string{"nope"}, Workloads: []string{"mcf"}},                                 // unknown model
		{Models: []string{"casino"}, Workloads: []string{"nope"}},                              // unknown workload
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, Geometries: [][2]int{{1, 2}}}, // WS < SO
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, IQSizes: []int{0}},            // non-positive
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, OSCAWidths: []int{48}},        // not power of two
	}
	for i, g := range bad {
		if _, err := g.Expand(); err == nil {
			t.Errorf("grid %d accepted: %+v", i, g)
		}
	}
}

// seq returns the n values 1..n.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Each cap admits a grid just inside it and refuses one just outside it,
// with an error naming the field.
func TestGridCaps(t *testing.T) {
	apps := func(n int) []string {
		var out []string
		for _, p := range workload.All()[:n] {
			out = append(out, p.Name)
		}
		return out
	}
	base := func(f func(*Grid)) Grid {
		g := Grid{Models: []string{"casino"}, Workloads: []string{"mcf"}, Ops: 1000, Warmup: 100}
		f(&g)
		return g
	}
	for _, tc := range []struct {
		name   string
		inside Grid
		out    Grid
		want   string
	}{
		{"ops+warmup",
			base(func(g *Grid) { g.Ops, g.Warmup = maxTraceOps-1000, 1000 }),
			base(func(g *Grid) { g.Ops, g.Warmup = maxTraceOps-1000, 1001 }), "ops + warmup"},
		{"ops overflow",
			base(func(g *Grid) { g.Ops, g.Warmup = maxTraceOps, -1 }),
			base(func(g *Grid) { g.Ops, g.Warmup = math.MaxInt, math.MaxInt }), "ops + warmup"},
		{"iq_sizes",
			base(func(g *Grid) { g.IQSizes = []int{maxQueueSize} }),
			base(func(g *Grid) { g.IQSizes = []int{maxQueueSize + 1} }), "iq_sizes"},
		{"sb_sizes",
			base(func(g *Grid) { g.SBSizes = []int{maxQueueSize} }),
			base(func(g *Grid) { g.SBSizes = []int{maxQueueSize + 1} }), "sb_sizes"},
		{"rob_sizes",
			base(func(g *Grid) { g.ROBSizes = []int{maxQueueSize} }),
			base(func(g *Grid) { g.ROBSizes = []int{maxQueueSize + 1} }), "rob_sizes"},
		{"osca_widths",
			base(func(g *Grid) { g.OSCAWidths = []int{maxQueueSize} }),
			base(func(g *Grid) { g.OSCAWidths = []int{2 * maxQueueSize} }), "osca_widths"},
		{"geometries",
			base(func(g *Grid) { g.Geometries = [][2]int{{maxWindow, maxWindow}} }),
			base(func(g *Grid) { g.Geometries = [][2]int{{maxWindow + 1, 1}} }), "geometries"},
		{"cells",
			base(func(g *Grid) { g.Models, g.Workloads, g.IQSizes = []string{"ino"}, apps(16), seq(maxGridCells/16) }),
			base(func(g *Grid) { g.Models, g.Workloads, g.IQSizes = []string{"ino"}, apps(17), seq(241) }), "more than 4096 cells"},
		{"specino iq",
			base(func(g *Grid) { g.Models, g.IQSizes = []string{"specino"}, []int{64} }),
			base(func(g *Grid) { g.Models, g.IQSizes = []string{"specino"}, []int{65} }), "IQSize 65"},
	} {
		if _, err := tc.inside.Expand(); err != nil {
			t.Errorf("%s: grid just inside the cap refused: %v", tc.name, err)
		}
		if _, err := tc.out.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: grid just outside the cap: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// The caps admit every grid the repository ships or documents: the
// benchmark's sweep catalogue extremes, the CI grids and the README and
// EXPERIMENTS examples.
func TestGridCapsAdmitInTreeGrids(t *testing.T) {
	for i, g := range []Grid{
		{Models: []string{"casino", "ooo", "specino"}, Workloads: []string{"gcc", "mcf", "hmmer"},
			Ops: 40000, Warmup: 10000, IQSizes: []int{12, 64}, SBSizes: []int{8, 40},
			ROBSizes: []int{64, 256}, Geometries: [][2]int{{2, 1}, {4, 4}}, Sampling: &sim.Sampling{}},
		{Models: []string{"casino", "specino"}, Workloads: []string{"mcf", "milc"},
			Ops: 60000, Warmup: 15000, Seed: 1, Geometries: [][2]int{{2, 1}, {4, 2}, {8, 4}}},
		{Models: []string{"ino", "specino", "casino", "ooo"}, Workloads: []string{"mcf", "milc", "libquantum", "hmmer", "h264ref"},
			Ops: 60000, Warmup: 15000, Seed: 1, Geometries: [][2]int{{2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}, {8, 8}}},
		{Models: []string{"ino", "casino", "ooo"}, Workloads: []string{"mcf", "gcc"}, Ops: 6000, Warmup: 600, Seed: 1,
			Sampling: &sim.Sampling{Period: 600, DetailOps: 150, WarmOps: 60}},
		{Models: []string{"casino", "specino"}, Workloads: []string{"mcf"}, Ops: 20000, Warmup: 5000,
			Geometries: [][2]int{{2, 1}, {4, 2}, {8, 4}}},
	} {
		if _, err := g.Expand(); err != nil {
			t.Errorf("grid %d refused: %v", i, err)
		}
	}
}

func TestCellSpecAppliesOverrides(t *testing.T) {
	c := Cell{Workload: "mcf", Model: "casino", WS: 4, SO: 2, IQ: 20, SB: 16, ROB: 64, OSCA: 128,
		Ops: 20000, Warmup: 5000, Seed: 1}
	s, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.CasinoCfg
	if cfg.WS != 4 || cfg.SO != 2 || cfg.IQSize != 20 || cfg.SQSize != 16 || cfg.ROBSize != 64 || cfg.OSCASize != 128 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if got := c.Key(); got != "mcf/casino[ws4,so2,iq20,sb16,rob64,osca128]" {
		t.Errorf("key = %q", got)
	}
}

func TestCacheKeySeparatesSpecAndTrace(t *testing.T) {
	a := Cell{Workload: "mcf", Model: "casino", WS: 2, SO: 1, Ops: 20000, Warmup: 5000, Seed: 1}
	b := a
	b.SO = 2
	b.WS = 2
	if a.CacheKey(42) == b.CacheKey(42) {
		t.Error("different specs share a cache key")
	}
	if a.CacheKey(42) == a.CacheKey(43) {
		t.Error("different traces share a cache key")
	}
	if a.CacheKey(42) != a.CacheKey(42) {
		t.Error("cache key not stable")
	}
}

func TestReadGridRejectsUnknownFields(t *testing.T) {
	if _, err := ReadGrid(strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"iq_size":[8]}`)); err == nil {
		t.Error("typo'd axis name accepted")
	}
	g, err := ReadGrid(strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"ops":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Ops != 1000 {
		t.Errorf("ops = %d", g.Ops)
	}
}
