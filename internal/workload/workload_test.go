package workload

import (
	"runtime"
	"testing"
	"time"

	"casino/internal/isa"
	"casino/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 25 {
		t.Fatalf("got %d profiles, want 25: %v", len(names), names)
	}
	var nInt, nFP int
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Integer {
			nInt++
		} else {
			nFP++
		}
		if len(p.Kernels) == 0 {
			t.Errorf("%s: no kernels", n)
		}
	}
	if nInt != 12 || nFP != 13 {
		t.Errorf("suite split = %d int / %d fp, want 12/13", nInt, nFP)
	}
	// Names() puts SPECint first.
	p0, _ := ByName(names[0])
	pLast, _ := ByName(names[len(names)-1])
	if !p0.Integer || pLast.Integer {
		t.Errorf("ordering wrong: first=%v last=%v", p0.Name, pLast.Name)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("quake"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestAllMatchesNames(t *testing.T) {
	all := All()
	names := Names()
	if len(all) != len(names) {
		t.Fatalf("All()=%d Names()=%d", len(all), len(names))
	}
	for i := range all {
		if all[i].Name != names[i] {
			t.Errorf("All[%d]=%s, Names[%d]=%s", i, all[i].Name, i, names[i])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("mcf")
	a := Generate(p, 10000, 42)
	b := Generate(p, 10000, 42)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a.Ops[i], b.Ops[i])
		}
	}
	c := Generate(p, 10000, 43)
	same := true
	for i := 0; i < a.Len() && i < c.Len(); i++ {
		if a.Ops[i] != c.Ops[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidAndSized(t *testing.T) {
	for _, p := range All() {
		tr := Generate(p, 5000, 1)
		if tr.Len() < 5000 {
			t.Errorf("%s: trace too short: %d", p.Name, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", p.Name, err)
		}
	}
}

func TestGenerateMixSanity(t *testing.T) {
	for _, p := range All() {
		m := Generate(p, 20000, 7).Stats()
		if m.LoadFrac() < 0.02 || m.LoadFrac() > 0.6 {
			t.Errorf("%s: load fraction %v outside sane range", p.Name, m.LoadFrac())
		}
		if m.BranchFrac() < 0.01 || m.BranchFrac() > 0.4 {
			t.Errorf("%s: branch fraction %v outside sane range", p.Name, m.BranchFrac())
		}
		if p.Integer && m.FPFrac() > 0.3 {
			t.Errorf("%s: SPECint profile has %v FP", p.Name, m.FPFrac())
		}
	}
}

// Register dependences must be internally consistent: every source register
// that feeds a load's address or a compute chain has been written at some
// point (after warm-up) — i.e. traces don't reference registers that are
// never produced.
func TestGenerateRegisterLiveness(t *testing.T) {
	p, _ := ByName("cactusADM")
	tr := Generate(p, 30000, 3)
	written := make(map[isa.Reg]bool)
	var unseeded int
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if i > 5000 { // after warm-up every live source should have a producer
			for _, s := range [...]isa.Reg{op.Src1, op.Src2} {
				if s.Valid() && !written[s] {
					unseeded++
				}
			}
		}
		if op.Dst.Valid() {
			written[op.Dst] = true
		}
	}
	if unseeded > 0 {
		t.Errorf("%d source reads of never-written registers after warm-up", unseeded)
	}
}

// Chase kernels must make each chain load's address register be the
// previous chain load's destination (serial chain), while the payload
// loads stay independent of the chain.
func TestChaseDependenceStructure(t *testing.T) {
	p := &Profile{Name: "chase-test", Integer: true, Kernels: []Kernel{
		{Behavior: Chase, Weight: 1, WorkingSet: 1 * mib, Chains: 1, OpsPerMem: 0},
	}}
	tr := Generate(p, 2000, 9)
	chainR := chainReg(0)
	var chained, payloads int
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Class != isa.Load {
			continue
		}
		switch op.Dst {
		case chainR:
			if op.Src1 != chainR {
				t.Fatalf("chain load %d: Src1=%v, want self-chained %v", i, op.Src1, chainR)
			}
			chained++
		default:
			if op.Src1 != regInduction {
				t.Fatalf("payload load %d: Src1=%v, want induction register", i, op.Src1)
			}
			payloads++
		}
	}
	if chained < 10 || payloads < 10 {
		t.Fatalf("too few loads checked: chain=%d payload=%d", chained, payloads)
	}
}

// Stream loads must not depend on prior load results (address from the
// induction register only).
func TestStreamIndependence(t *testing.T) {
	p := &Profile{Name: "stream-test", Integer: true, Kernels: []Kernel{
		{Behavior: Stream, Weight: 1, WorkingSet: 1 * mib, Stride: 64, OpsPerMem: 2},
	}}
	tr := Generate(p, 2000, 9)
	loadDsts := make(map[isa.Reg]bool)
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Class == isa.Load {
			if loadDsts[op.Src1] {
				t.Fatalf("stream load %d address depends on a load result", i)
			}
			loadDsts[op.Dst] = true
		}
	}
}

// Alias kernels produce store→load pairs to the same address.
func TestAliasPairs(t *testing.T) {
	p := &Profile{Name: "alias-test", Integer: true, Kernels: []Kernel{
		{Behavior: Alias, Weight: 1, WorkingSet: 4 * kib, AliasDist: 2, OpsPerMem: 1},
	}}
	tr := Generate(p, 2000, 9)
	pairs := 0
	var lastStore *isa.MicroOp
	for i := range tr.Ops {
		op := &tr.Ops[i]
		switch op.Class {
		case isa.Store:
			lastStore = op
		case isa.Load:
			if lastStore != nil && op.Overlaps(lastStore) {
				pairs++
			}
		}
	}
	if pairs < 50 {
		t.Errorf("too few store→load alias pairs: %d", pairs)
	}
}

// Branch targets must be consistent: a taken branch's target must be the PC
// of the next op in the trace; a not-taken branch falls through.
func TestBranchTargetConsistency(t *testing.T) {
	for _, name := range []string{"gobmk", "h264ref", "libquantum"} {
		p, _ := ByName(name)
		tr := Generate(p, 20000, 5)
		bad := 0
		for i := 0; i+1 < len(tr.Ops); i++ {
			op := &tr.Ops[i]
			if op.Class != isa.Branch {
				continue
			}
			next := tr.Ops[i+1].PC
			if op.Taken && next != op.Target() {
				// Kernel switches at segment boundaries legitimately jump
				// to another kernel's code; only count same-region breaks.
				if next>>20 == op.PC>>20 {
					bad++
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d taken branches whose successor is not the target", name, bad)
		}
	}
}

func TestGenerateTinyAndPanics(t *testing.T) {
	p, _ := ByName("gcc")
	tr := Generate(p, 0, 1)
	if tr.Len() < 1 {
		t.Error("Generate with n<=0 should still produce ops")
	}
	defer func() {
		if recover() == nil {
			t.Error("profile without weights should panic")
		}
	}()
	Generate(&Profile{Name: "empty", Kernels: []Kernel{{Behavior: Stream, Weight: 0}}}, 10, 1)
}

// A panic inside generation must still stop the segment hasher goroutine.
func TestGeneratePanicStopsHasher(t *testing.T) {
	bad := &Profile{Name: "bad", Kernels: []Kernel{{Behavior: numBehaviors, Weight: 1}}}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("unknown behavior did not panic")
				}
			}()
			Generate(bad, 1000, 1)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after panicking generations", before, runtime.NumGoroutine())
		}
	}
}

var sinkFP uint64

// BenchmarkGenerate resolves one trace of the benchmark's length (60k
// measured + 15k warm-up ops), fingerprint included.
func BenchmarkGenerate(b *testing.B) {
	p, _ := ByName("hmmer")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFP = Generate(p, 75000, 1).Fingerprint()
	}
}

// Indirect kernels emit a dispatch branch whose target varies among the
// configured handler blocks, with consistent static layout.
func TestIndirectDispatchStructure(t *testing.T) {
	p := &Profile{Name: "indirect-test", Integer: true, Kernels: []Kernel{
		{Behavior: Indirect, Weight: 1, WorkingSet: 4 * kib, Targets: 4, OpsPerMem: 2},
	}}
	tr := Generate(p, 4000, 9)
	targets := map[uint64]int{}
	for i := 0; i+1 < len(tr.Ops); i++ {
		op := &tr.Ops[i]
		if op.Class != isa.Branch || !op.Taken {
			continue
		}
		if tr.Ops[i+1].PC != op.Target() && tr.Ops[i+1].PC>>20 == op.PC>>20 {
			t.Fatalf("branch %d target %#x but successor at %#x", i, op.Target(), tr.Ops[i+1].PC)
		}
		targets[op.Target()]++
	}
	// The dispatch should exercise several distinct targets.
	if len(targets) < 4 {
		t.Errorf("only %d distinct branch targets; dispatch not polymorphic", len(targets))
	}
}

// Indirect dispatch must hurt the BTB: mispredict rates on an indirect
// profile exceed a plain loop profile.
func TestIndirectStressesBTB(t *testing.T) {
	mono := &Profile{Name: "mono-test", Integer: true, Kernels: []Kernel{
		{Behavior: Compute, Weight: 1, WorkingSet: 4 * kib, ILP: 2, OpsPerMem: 6},
	}}
	poly := &Profile{Name: "poly-test", Integer: true, Kernels: []Kernel{
		{Behavior: Indirect, Weight: 1, WorkingSet: 4 * kib, Targets: 16, OpsPerMem: 2},
	}}
	// Rough proxy: count how often consecutive dynamic encounters of the
	// same branch PC change target.
	changes := func(tr *trace.Trace) int {
		last := map[uint64]uint64{}
		n := 0
		for i := range tr.Ops {
			op := &tr.Ops[i]
			if op.Class != isa.Branch || !op.Taken {
				continue
			}
			if prev, ok := last[op.PC]; ok && prev != op.Target() {
				n++
			}
			last[op.PC] = op.Target()
		}
		return n
	}
	if m, p := changes(Generate(mono, 4000, 9)), changes(Generate(poly, 4000, 9)); p <= m {
		t.Errorf("indirect profile target changes (%d) not above compute profile (%d)", p, m)
	}
}
