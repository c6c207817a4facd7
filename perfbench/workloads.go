package main

import (
	"fmt"
	"slices"

	"casino/internal/dse"
	"casino/internal/sim"
)

// rng is splitmix64: a tiny, fully specified generator, so that a seed
// names the same inputs on every Go release and machine.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Workload names.
const (
	wlStallHeavy   = "stall-heavy"
	wlCommitDense  = "commit-dense"
	wlSweepService = "sweep-service"
)

var workloadNames = []string{wlStallHeavy, wlCommitDense, wlSweepService}

// matrixModel is one column of the batch matrix.
type matrixModel struct {
	Label  string // reference key and report name
	Family string // one of modelFamilies
	Spec   sim.Spec
}

// matrixModels are the six cores every batch cell row runs: the paper's
// InO, LSC, Freeway, CASINO and OoO plus the SpecInO[2,1] limit core.
func matrixModels() []matrixModel {
	ws21 := sim.DefaultSpecInO(2, 1)
	return []matrixModel{
		{"ino", "ino", sim.Spec{Model: sim.ModelInO}},
		{"lsc", "slice", sim.Spec{Model: sim.ModelLSC}},
		{"freeway", "slice", sim.Spec{Model: sim.ModelFreeway}},
		{"casino", "core", sim.Spec{Model: sim.ModelCASINO}},
		{"ooo", "ooo", sim.Spec{Model: sim.ModelOoO}},
		{"specino21", "specino", sim.Spec{Model: sim.ModelSpecInO, SpecInOCfg: &ws21}},
	}
}

// batchWorkload is a full-fidelity matrix over a class of apps. The class
// is fixed by the share of simulated cycles the event engine skips
// (ff.coverage); a run whose measured coverage leaves [MinFF, MaxFF] is
// flagged, because its apps no longer stress what the workload is for.
type batchWorkload struct {
	Name         string
	Apps         []string
	MinFF, MaxFF float64
}

var batchWorkloads = map[string]batchWorkload{
	// Memory-bound apps whose footprint exceeds the 1 MiB L2: most cycles
	// are fast-forwarded, so host time goes to event discovery and mem.
	wlStallHeavy: {wlStallHeavy, []string{"mcf", "astar", "omnetpp", "xalancbmk"}, 0.5, 1},
	// Compute-bound apps: almost every cycle is stepped through the
	// scheduler, frontend, LSU and accounting layers.
	wlCommitDense: {wlCommitDense, []string{"hmmer", "bwaves", "gamess", "namd", "zeusmp"}, 0, 0.25},
}

// Batch run window: the simulator's default region (60k measured ops after
// 15k warm-up), as the figure suite runs it.
const (
	batchOps    = sim.DefaultOps
	batchWarmup = sim.DefaultWarmup
)

// traceSeedPool bounds the trace seeds a batch run draws from, so every
// seed's simulated outputs have a recorded reference.
const traceSeedPool = 16

// traceSeedsPerRun is how many trace seeds one batch run's matrix spans.
// Traces of one app differ by seed in how much they stall (up to ~15% in
// simulated cycles on stall-heavy); spanning several keeps a run's host
// time from resting on one draw.
const traceSeedsPerRun = 4

// batchTraceSeeds maps a benchmark seed onto the run's trace-generation
// seeds: a seeded draw of traceSeedsPerRun distinct seeds from the pool.
func batchTraceSeeds(seed int64) []int64 {
	var out []int64
	for _, i := range newRNG(uint64(seed) ^ 0x7ace).perm(traceSeedPool)[:traceSeedsPerRun] {
		out = append(out, int64(i)+1)
	}
	return out
}

// batchCell is one (app, trace seed, model) point of a batch matrix.
type batchCell struct {
	App       string
	TraceSeed int64
	Model     matrixModel
}

// batchCells returns the workload's matrix over the seed's trace seeds, in
// the seed's order: the order in which cells are handed to the worker pool,
// which changes how cells of different cost pair up on the workers.
func batchCells(w batchWorkload, seed int64) []batchCell {
	models := matrixModels()
	var cells []batchCell
	for _, ts := range batchTraceSeeds(seed) {
		for _, app := range w.Apps {
			for _, m := range models {
				cells = append(cells, batchCell{App: app, TraceSeed: ts, Model: m})
			}
		}
	}
	order := newRNG(uint64(seed) ^ 0x5eed).perm(len(cells))
	out := make([]batchCell, len(cells))
	for i, j := range order {
		out[i] = cells[j]
	}
	return out
}

// spec is the simulator run of the cell.
func (c batchCell) spec() sim.Spec {
	s := c.Model.Spec
	s.Workload, s.Ops, s.Warmup, s.Seed = c.App, batchOps, batchWarmup, c.TraceSeed
	return s
}

// refKey names a batch cell's reference entry.
func refKey(workload string, traceSeed int64, app, model string) string {
	return fmt.Sprintf("%s/seed%d/%s/%s", workload, traceSeed, app, model)
}

// Sweep-service traffic. Every grid is sampled-first over a short region,
// so service-side work (queue, cache, merge, Pareto, HTTP) is a visible
// share of each sweep.
const (
	svcOps      = 40000
	svcWarmup   = 10000
	svcFamilies = 512 // families in the catalogue; split among the clients
	svcVariants = 4   // refinement steps per family
	svcClients  = 2   // closed-loop clients
	// svcSeedPool bounds the grid seeds, so every grid of every benchmark
	// seed has a recorded reference frontier.
	svcSeedPool = 2
	// catalogueSeed fixes the catalogue itself: the benchmark seed picks
	// walks through it, never new grids.
	catalogueSeed = 0xca5170
)

var (
	svcSampling = sim.Sampling{Period: sim.DefaultSamplePeriod, DetailOps: sim.DefaultSampleDetail, WarmOps: sim.DefaultSampleWarmOps}
	svcModels   = []string{sim.ModelInO, sim.ModelLSC, sim.ModelFreeway, sim.ModelCASINO, sim.ModelOoO, sim.ModelSpecInO}
	svcApps     = []string{"gcc", "mcf", "hmmer", "libquantum", "milc", "namd", "sjeng", "soplex"}
	// The axis pools are wide so that families rarely share a cell: a
	// sweep overlaps the cache through its own family, not by accident.
	svcIQ   = []int{12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64}
	svcSB   = []int{8, 12, 16, 20, 24, 28, 32, 36, 40}
	svcROB  = []int{64, 96, 128, 160, 192, 224, 256}
	svcGeom = [][2]int{{2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 4}}
	// primeModel runs the one cell per trace that primes the server's
	// trace cache during set-up. No traffic grid uses it, so priming
	// leaves the result cache cold for the traffic.
	primeModel = sim.ModelOoONoLQ
)

// svcGridSeed maps a benchmark seed onto the seed every traffic grid of
// the run carries (and so onto the traces the server generates).
func svcGridSeed(seed int64) int64 { return 1 + int64(uint64(seed)%svcSeedPool) }

// catalogue returns the fixed set of traffic grids, svcFamilies families of
// svcVariants grids each. A family starts from a small base grid and each
// later variant refines the one before it — another IQ value, another
// model, another app, a ROB or geometry point — so consecutive sweeps of a
// family overlap partly in the result cache. Grids carry seed 0; the run
// stamps its grid seed on them.
func catalogue() [][]dse.Grid {
	r := newRNG(catalogueSeed)
	pick := func(pool []string, n int) []string {
		var out []string
		for _, i := range r.perm(len(pool))[:n] {
			out = append(out, pool[i])
		}
		return out
	}
	fams := make([][]dse.Grid, svcFamilies)
	for f := range fams {
		g := dse.Grid{
			Models:    pick(svcModels, 2),
			Workloads: pick(svcApps, 2),
			Ops:       svcOps,
			Warmup:    svcWarmup,
			IQSizes:   []int{svcIQ[r.intn(len(svcIQ))]},
			SBSizes:   []int{svcSB[r.intn(len(svcSB))]},
			Sampling:  &svcSampling,
		}
		variants := []dse.Grid{g}
		for v := 1; v < svcVariants; v++ {
			g = refine(g, r, v)
			variants = append(variants, g)
		}
		fams[f] = variants
	}
	return fams
}

// refine returns the next variant of a family: step v adds one axis value.
func refine(g dse.Grid, r *rng, v int) dse.Grid {
	g.Models = append([]string(nil), g.Models...)
	g.Workloads = append([]string(nil), g.Workloads...)
	g.IQSizes = append([]int(nil), g.IQSizes...)
	g.ROBSizes = append([]int(nil), g.ROBSizes...)
	g.Geometries = append([][2]int(nil), g.Geometries...)
	switch v {
	case 1:
		g.IQSizes = addNew(r, g.IQSizes, svcIQ)
	case 2:
		g.Models = addNew(r, g.Models, svcModels)
	default:
		if r.intn(2) == 0 {
			g.Workloads = addNew(r, g.Workloads, svcApps)
		} else if r.intn(2) == 0 {
			g.ROBSizes = addNew(r, g.ROBSizes, svcROB)
		} else {
			g.Geometries = addNew(r, g.Geometries, svcGeom)
		}
	}
	return g
}

// addNew appends a random pool value vals does not hold yet.
func addNew[T comparable](r *rng, vals, pool []T) []T {
	for _, i := range r.perm(len(pool)) {
		if !slices.Contains(vals, pool[i]) {
			return append(vals, pool[i])
		}
	}
	return vals
}

// step is one submission of a client's walk: catalogue family and variant.
type step struct {
	Family, Variant int
	Repeat          bool // an exact resubmit of a grid the client ran before
}

// gridID names a catalogue grid in references and reports.
func (s step) gridID() string { return fmt.Sprintf("f%03d.v%d", s.Family, s.Variant) }

// walk returns a client's submission sequence for a benchmark seed. The
// clients split the families between them (so one client's sweeps never
// replay another's), visit their families in a seeded order and, within a
// family, submit the variants in refinement order; after each variant,
// with probability one half, they resubmit one of the family's variants
// they already ran. Repeats are one third of the steps on average. The
// caller cycles through the walk if a run outlasts it.
func walk(seed int64, client int) []step {
	r := newRNG(uint64(seed)*0x9e37 + uint64(client) + 1)
	var mine []int
	for f := client; f < svcFamilies; f += svcClients {
		mine = append(mine, f)
	}
	var steps []step
	for _, i := range r.perm(len(mine)) {
		f := mine[i]
		for v := 0; v < svcVariants; v++ {
			steps = append(steps, step{Family: f, Variant: v})
			if r.intn(2) == 0 {
				steps = append(steps, step{Family: f, Variant: r.intn(v + 1), Repeat: true})
			}
		}
	}
	return steps
}
