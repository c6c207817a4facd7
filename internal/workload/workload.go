// Package workload generates deterministic synthetic micro-op traces that
// stand in for the SPEC CPU2006 SimPoint regions used in the CASINO paper.
//
// A Profile composes weighted Kernels; each kernel is a small static loop
// with a characteristic dependence and memory-access structure:
//
//   - Stream: sequential array sweeps (prefetch friendly, high MLP headroom)
//   - Chase: pointer chasing with K parallel chains (serial latency chains)
//   - Gather: independent randomly-addressed loads (raw MLP)
//   - Compute: register dependence chains with a configurable ILP width
//   - Branchy: data-dependent branches with configurable entropy
//   - Alias: store→load address reuse (store forwarding / order violations)
//
// These are exactly the axes the paper's mechanisms respond to: dependence
// distance (ILP), overlappable misses (MLP), branch predictability, and
// load/store aliasing. The named profiles blend them to mimic each SPEC
// application's published character. Generation is fully deterministic for
// a given (profile, seed, length).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"casino/internal/isa"
	"casino/internal/trace"
)

// Behavior selects a kernel's dependence/memory structure.
type Behavior uint8

// Kernel behaviours.
const (
	Stream Behavior = iota
	Chase
	Gather
	Compute
	Branchy
	Alias
	Indirect
	numBehaviors
)

var behaviorNames = [numBehaviors]string{"Stream", "Chase", "Gather", "Compute", "Branchy", "Alias", "Indirect"}

func (b Behavior) String() string {
	if int(b) < len(behaviorNames) {
		return behaviorNames[b]
	}
	return fmt.Sprintf("Behavior(%d)", uint8(b))
}

// Kernel is one weighted loop nest inside a profile.
type Kernel struct {
	Behavior   Behavior
	Weight     float64 // relative share of dynamic instructions
	WorkingSet uint64  // data footprint in bytes (locality knob)
	Stride     uint64  // Stream: bytes between consecutive elements
	Chains     int     // Chase: number of independent pointer chains
	ILP        int     // Compute: independent dependence chains
	OpsPerMem  int     // ALU/FP ops attached to each memory access
	FP         bool    // use FP ops and registers for the compute portion
	TakenProb  float64 // Branchy: probability the data-dependent branch is taken
	StoreEvery int     // Stream: emit a store every N elements (0 = never)
	AliasDist  int     // Alias: ops between a store and the load that rereads it
	Targets    int     // Indirect: number of dispatch targets (default 8)
}

// Profile names a weighted blend of kernels approximating one application.
type Profile struct {
	Name    string
	Integer bool // SPECint (true) or SPECfp (false)
	Kernels []Kernel
}

// segmentOps is the number of dynamic ops generated per kernel segment
// before the generator considers switching kernels (phase length).
const segmentOps = 2048

// Generate produces a trace of at least n dynamic micro-ops for profile p.
// The same (p, n, seed) always yields an identical trace.
//
// The returned trace is freshly allocated and owned by the caller until it
// is published; once handed to a core or the sim trace cache it falls under
// the trace package's read-only contract and may be shared across
// goroutines without synchronisation. Its fingerprint is already sealed:
// a helper goroutine hashes each finished segment while the next one is
// generated.
func Generate(p *Profile, n int, seed int64) *trace.Trace {
	if n <= 0 {
		n = 1
	}
	g := &generator{
		rng:  rand.New(rand.NewSource(seed ^ int64(hashName(p.Name)))),
		ops:  make([]isa.MicroOp, 0, n+segmentOps),
		prof: p,
	}
	g.states = make([]*kernelState, len(p.Kernels))
	var totalW float64
	for i := range p.Kernels {
		g.states[i] = newKernelState(i, &p.Kernels[i], g.rng)
		totalW += p.Kernels[i].Weight
	}
	if totalW <= 0 {
		panic(fmt.Sprintf("workload: profile %q has no weighted kernels", p.Name))
	}
	// The generator never writes an op again once its segment is sent, so
	// the hasher may read it concurrently. After the preamble, every
	// segment holds at least segmentOps ops, which bounds the sends by the
	// buffer.
	segs := make(chan []isa.MicroOp, n/segmentOps+2)
	fp := make(chan uint64, 1)
	go func() {
		h := trace.FingerprintBasis
		for s := range segs {
			h = trace.HashOps(h, s)
		}
		fp <- h
	}()
	func() {
		defer close(segs) // the hasher exits even if generation panics
		g.emitPreamble()
		segs <- g.ops
		for len(g.ops) < n {
			lo := len(g.ops)
			g.runSegment(g.pickKernel(totalW))
			segs <- g.ops[lo:]
		}
	}()
	return trace.Sealed(p.Name, g.ops, <-fp)
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

type generator struct {
	rng    *rand.Rand
	ops    []isa.MicroOp
	prof   *Profile
	states []*kernelState
}

// emitPreamble defines every architectural register once, so that every
// later source read has a producer (live-in state of the traced region).
func (g *generator) emitPreamble() {
	const preambleBase = 0x3FF000
	for i := 0; i < isa.NumIntRegs; i++ {
		g.ops = append(g.ops, isa.MicroOp{
			Seq: uint64(len(g.ops)), PC: preambleBase + uint64(i)*4, Class: isa.IntALU,
			Dst: isa.IntReg(i), Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		g.ops = append(g.ops, isa.MicroOp{
			Seq: uint64(len(g.ops)), PC: preambleBase + uint64(isa.NumIntRegs+i)*4, Class: isa.FPAdd,
			Dst: isa.FPReg(i), Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
}

func (g *generator) pickKernel(totalW float64) *kernelState {
	x := g.rng.Float64() * totalW
	for i := range g.prof.Kernels {
		x -= g.prof.Kernels[i].Weight
		if x <= 0 {
			return g.states[i]
		}
	}
	return g.states[len(g.states)-1]
}

// kernelState holds the per-kernel generation state that persists across
// segments: the induction position, pointer-chain cursors and code layout.
type kernelState struct {
	k        *Kernel
	codeBase uint64 // static code region for this kernel
	dataBase uint64 // data region (disjoint between kernels)
	index    uint64 // induction variable (element count)
	chainPtr []uint64
	// Register conventions (see emit helpers):
	// r0: induction/base pointer, r1..: chain pointers, upper regs: data.
}

func newKernelState(idx int, k *Kernel, rng *rand.Rand) *kernelState {
	ks := &kernelState{
		k:        k,
		codeBase: 0x400000 + uint64(idx)<<20,
		dataBase: 1<<33 + uint64(idx)<<30,
	}
	chains := k.Chains
	if chains < 1 {
		chains = 1
	}
	ks.chainPtr = make([]uint64, chains)
	for i := range ks.chainPtr {
		ks.chainPtr[i] = ks.dataBase + uint64(rng.Int63())%maxU64(k.WorkingSet, 64)
	}
	return ks
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// wsAddr returns a pseudo-random cache-block-grained address inside the
// kernel's working set.
func (ks *kernelState) wsAddr(rng *rand.Rand) uint64 {
	ws := maxU64(ks.k.WorkingSet, 64)
	off := (uint64(rng.Int63()) % ws) &^ 7 // 8-byte aligned
	return ks.dataBase + off
}

// Register conventions shared by the emitters.
var (
	regInduction = isa.IntReg(0)
	regCond      = isa.IntReg(15)
)

func chainReg(i int) isa.Reg { return isa.IntReg(1 + i%6) } // r1..r6
func dataReg(i int) isa.Reg  { return isa.IntReg(7 + i%8) } // r7..r14
func fpDataReg(i int) isa.Reg {
	return isa.FPReg(i % isa.NumFPRegs)
}

// emit appends a micro-op. PC is codeBase + 4*slot; slot identifies the
// static instruction within the kernel so predictors see a stable layout.
func (g *generator) emit(ks *kernelState, slot int, op isa.MicroOp) {
	op.Seq = uint64(len(g.ops))
	op.PC = ks.codeBase + uint64(slot)*4
	g.ops = append(g.ops, op)
}

// runSegment generates about segmentOps dynamic ops from kernel ks,
// always completing whole iterations so control flow stays consistent.
func (g *generator) runSegment(ks *kernelState) {
	start := len(g.ops)
	for len(g.ops)-start < segmentOps {
		last := len(g.ops)-start >= segmentOps-64 // rough: last iteration in segment
		switch ks.k.Behavior {
		case Stream:
			g.iterStream(ks, last)
		case Chase:
			g.iterChase(ks, last)
		case Gather:
			g.iterGather(ks, last)
		case Compute:
			g.iterCompute(ks, last)
		case Branchy:
			g.iterBranchy(ks, last)
		case Alias:
			g.iterAlias(ks, last)
		case Indirect:
			g.iterIndirect(ks, last)
		default:
			panic("workload: unknown behavior")
		}
	}
}

// loopBranch emits the backward loop branch closing an iteration.
// taken=false on the final iteration of a segment (fall out of the loop).
func (g *generator) loopBranch(ks *kernelState, slot int, taken bool) {
	g.emit(ks, slot, isa.MicroOp{
		Class: isa.Branch,
		Dst:   isa.RegNone,
		Src1:  regInduction,
		Src2:  isa.RegNone,
		Taken: taken,
		Addr:  ks.codeBase,
	})
}

// computeOps emits n ALU/FP ops forming short chains seeded by seedReg.
// Returns the next free slot.
func (g *generator) computeOps(ks *kernelState, slot, n int, seedReg isa.Reg, fp bool) int {
	prev := seedReg
	for j := 0; j < n; j++ {
		var dst, src2 isa.Reg
		var class isa.Class
		if fp {
			dst = fpDataReg(j)
			src2 = fpDataReg(j + 3)
			if j%3 == 2 {
				class = isa.FPMul
			} else {
				class = isa.FPAdd
			}
			// FP chains cannot consume an integer seed register directly;
			// model the int→fp move as seeding only via src2.
			if !prev.IsFP() {
				prev = fpDataReg(j + 5)
			}
		} else {
			dst = dataReg(j)
			src2 = dataReg(j + 3)
			if j%7 == 6 {
				class = isa.IntMul
			} else {
				class = isa.IntALU
			}
		}
		g.emit(ks, slot, isa.MicroOp{Class: class, Dst: dst, Src1: prev, Src2: src2})
		slot++
		if j%2 == 1 {
			prev = dst // extend the chain every other op
		}
	}
	return slot
}

// iterStream: ld A[i]; compute; (st B[i]); i++; loop.
func (g *generator) iterStream(ks *kernelState, last bool) {
	k := ks.k
	stride := k.Stride
	if stride == 0 {
		stride = 8
	}
	ws := maxU64(k.WorkingSet, stride)
	addr := ks.dataBase + (ks.index*stride)%ws
	slot := 0
	ld := dataReg(0)
	g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: ld, Src1: regInduction, Src2: isa.RegNone, Addr: addr, Size: 8})
	slot++
	slot = g.computeOps(ks, slot, k.OpsPerMem, ld, k.FP)
	if k.StoreEvery > 0 && ks.index%uint64(k.StoreEvery) == 0 {
		src := dataReg(k.OpsPerMem - 1)
		if k.FP {
			src = fpDataReg(k.OpsPerMem - 1)
		}
		if k.OpsPerMem == 0 {
			src = ld
		}
		st := ks.dataBase + (ws+ks.index*stride)%(2*ws)
		g.emit(ks, slot, isa.MicroOp{Class: isa.Store, Dst: isa.RegNone, Src1: src, Src2: regInduction, Addr: st, Size: 8})
		slot++
	}
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// iterChase: for each chain, ld p = [p]; dependent compute; plus the
// independent per-node payload work real traversals carry (an accumulator
// over a sequential side array), which exposes ILP/MLP beside the serial
// chain. Loop.
func (g *generator) iterChase(ks *kernelState, last bool) {
	k := ks.k
	slot := 0
	for c := range ks.chainPtr {
		pr := chainReg(c)
		addr := ks.chainPtr[c]
		g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: pr, Src1: pr, Src2: isa.RegNone, Addr: addr, Size: 8})
		slot++
		// Next pointer is "read from memory": deterministic pseudo-random walk.
		ks.chainPtr[c] = ks.wsAddr(g.rng)
		slot = g.computeOps(ks, slot, k.OpsPerMem, pr, k.FP)
	}
	// Independent payload: a sequential (prefetch-friendly) load off the
	// induction variable plus accumulator updates.
	payload := dataReg(5)
	payloadAddr := ks.dataBase + (maxU64(k.WorkingSet, 64)+ks.index*8)%(2*maxU64(k.WorkingSet, 64))
	g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: payload, Src1: regInduction, Src2: isa.RegNone, Addr: payloadAddr, Size: 8})
	slot++
	acc := dataReg(6)
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: acc, Src1: acc, Src2: payload})
	slot++
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// iterGather: idx = f(i); ld A[idx]; compute; loop. Loads are independent.
func (g *generator) iterGather(ks *kernelState, last bool) {
	k := ks.k
	slot := 0
	idx := dataReg(7)
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: idx, Src1: regInduction, Src2: isa.RegNone})
	slot++
	ld := dataReg(0)
	g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: ld, Src1: idx, Src2: isa.RegNone, Addr: ks.wsAddr(g.rng), Size: 8})
	slot++
	slot = g.computeOps(ks, slot, k.OpsPerMem, ld, k.FP)
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// iterCompute: ILP independent chains advanced round-robin; rare loads keep
// the working set warm; loop.
func (g *generator) iterCompute(ks *kernelState, last bool) {
	k := ks.k
	ilp := k.ILP
	if ilp < 1 {
		ilp = 1
	}
	slot := 0
	n := k.OpsPerMem
	if n < ilp {
		n = ilp
	}
	for j := 0; j < n; j++ {
		c := j % ilp
		var dst, src1, src2 isa.Reg
		var class isa.Class
		if k.FP {
			dst = fpDataReg(c)
			src1 = fpDataReg(c) // serial within chain
			src2 = fpDataReg((c + ilp) % isa.NumFPRegs)
			if j%4 == 3 {
				class = isa.FPMul
			} else {
				class = isa.FPAdd
			}
		} else {
			dst = dataReg(c)
			src1 = dataReg(c)
			src2 = dataReg(c + 3)
			if j%9 == 8 {
				class = isa.IntMul
			} else {
				class = isa.IntALU
			}
		}
		g.emit(ks, slot, isa.MicroOp{Class: class, Dst: dst, Src1: src1, Src2: src2})
		slot++
	}
	// Occasional load to keep a modest footprint (hits L1/L2 mostly).
	if ks.index%8 == 0 {
		g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: dataReg(6), Src1: regInduction, Src2: isa.RegNone,
			Addr: ks.dataBase + (ks.index*8)%maxU64(k.WorkingSet, 64), Size: 8})
		slot++
	}
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// iterBranchy: small blocks guarded by data-dependent branches.
func (g *generator) iterBranchy(ks *kernelState, last bool) {
	k := ks.k
	slot := 0
	// Load feeding the condition (small working set: mostly cache hits).
	cond := regCond
	g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: cond, Src1: regInduction, Src2: isa.RegNone,
		Addr: ks.dataBase + (uint64(g.rng.Int63())%maxU64(k.WorkingSet, 64))&^7, Size: 4})
	slot++
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: cond, Src1: cond, Src2: isa.RegNone})
	slot++
	taken := g.rng.Float64() < k.TakenProb
	blockLen := 3 + k.OpsPerMem
	target := ks.codeBase + uint64(slot+1+blockLen)*4
	g.emit(ks, slot, isa.MicroOp{Class: isa.Branch, Dst: isa.RegNone, Src1: cond, Src2: isa.RegNone, Taken: taken, Addr: target})
	slot++
	if !taken {
		slot = g.computeOps(ks, slot, blockLen, cond, false)
	} else {
		slot += blockLen // skipped block: advance static layout only
	}
	slot = g.computeOps(ks, slot, 2, regInduction, false)
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// iterAlias: v = compute; st [a] = v; filler; ld [a]. Every fourth
// iteration the store's address comes through a slow pointer lookup (AGI
// load over a large random region) while the reread load's address is
// computed cheaply from the induction variable — the two reference the
// same location through different registers, which is the memory-order-
// violation window the paper's h264ref analysis describes.
func (g *generator) iterAlias(ks *kernelState, last bool) {
	k := ks.k
	slot := 0
	ws := maxU64(k.WorkingSet, 64)
	a := ks.dataBase + (ks.index*16)%ws
	val := dataReg(0)
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: val, Src1: dataReg(1), Src2: dataReg(2)})
	slot++
	addrReg := dataReg(3)
	loadAddrReg := addrReg
	agi := ks.index%8 == 0
	// Most AGI iterations reread a disjoint address (or store an equal
	// value, which the on-commit *value* check would not flag): only a
	// quarter of them actually conflict. Keeps violations rare, as the
	// paper observes for CASINO, while still exercising the window.
	loadAddr := a
	if agi && (ks.index/8)%4 != 0 {
		loadAddr = a + 16
	}
	if agi {
		// AGI depends on a load over a large region: the store resolves
		// late, while the aliasing load below takes a fast address path.
		agiRegion := maxU64(8*ws, 4<<20)
		g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: addrReg, Src1: regInduction, Src2: isa.RegNone,
			Addr: ks.dataBase + ws + (uint64(g.rng.Int63())%agiRegion)&^7, Size: 8})
		slot++
		g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: addrReg, Src1: addrReg, Src2: isa.RegNone})
		slot++
		loadAddrReg = dataReg(5)
		g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: loadAddrReg, Src1: regInduction, Src2: isa.RegNone})
		slot++
	} else {
		g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: addrReg, Src1: regInduction, Src2: isa.RegNone})
		slot++
	}
	g.emit(ks, slot, isa.MicroOp{Class: isa.Store, Dst: isa.RegNone, Src1: val, Src2: addrReg, Addr: a, Size: 8})
	slot++
	dist := k.AliasDist
	if dist < 0 {
		dist = 0
	}
	slot = g.computeOps(ks, slot, dist, val, false)
	// The load rereads the stored address (forwarding / violation window).
	g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: dataReg(4), Src1: loadAddrReg, Src2: isa.RegNone, Addr: loadAddr, Size: 8})
	slot++
	slot = g.computeOps(ks, slot, k.OpsPerMem, dataReg(4), false)
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// iterIndirect models interpreter/virtual-call dispatch: a load fetches
// the selector, an indirect branch jumps to one of Targets handler blocks
// (stressing the BTB — the target changes pseudo-randomly), the handler
// runs a few ALU ops and jumps to the loop tail.
func (g *generator) iterIndirect(ks *kernelState, last bool) {
	k := ks.k
	targets := k.Targets
	if targets < 2 {
		targets = 8
	}
	blockLen := 2 + k.OpsPerMem
	slot := 0
	sel := regCond
	g.emit(ks, slot, isa.MicroOp{Class: isa.Load, Dst: sel, Src1: regInduction, Src2: isa.RegNone,
		Addr: ks.dataBase + (uint64(g.rng.Int63())%maxU64(k.WorkingSet, 64))&^7, Size: 4})
	slot++
	pick := g.rng.Intn(targets)
	// Static layout: dispatch branch at slot 1; handler t occupies slots
	// [2 + t*(blockLen+1), ...) ending with a jump to the tail.
	handlerSlot := func(t int) int { return 2 + t*(blockLen+1) }
	tailSlot := handlerSlot(targets)
	g.emit(ks, slot, isa.MicroOp{Class: isa.Branch, Dst: isa.RegNone, Src1: sel, Src2: isa.RegNone,
		Taken: true, Addr: ks.codeBase + uint64(handlerSlot(pick))*4})
	// Emit only the taken handler's dynamic ops at its static slots.
	hs := handlerSlot(pick)
	hs = g.computeOps(ks, hs, blockLen, sel, k.FP)
	g.emit(ks, hs, isa.MicroOp{Class: isa.Branch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		Taken: true, Addr: ks.codeBase + uint64(tailSlot)*4})
	slot = tailSlot
	g.emit(ks, slot, isa.MicroOp{Class: isa.IntALU, Dst: regInduction, Src1: regInduction, Src2: isa.RegNone})
	slot++
	g.loopBranch(ks, slot, !last)
	ks.index++
}

// --- profile registry ---

var registry = map[string]*Profile{}
var registryOrder []string

func register(p *Profile) {
	if _, dup := registry[p.Name]; dup {
		panic("workload: duplicate profile " + p.Name)
	}
	registry[p.Name] = p
	registryOrder = append(registryOrder, p.Name)
}

// ByName returns the named profile, or an error listing valid names.
func ByName(name string) (*Profile, error) {
	if p, ok := registry[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("workload: unknown profile %q (known: %v)", name, Names())
}

// Names returns all profile names, SPECint first, each group alphabetical.
func Names() []string {
	out := append([]string(nil), registryOrder...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := registry[out[i]], registry[out[j]]
		if pi.Integer != pj.Integer {
			return pi.Integer
		}
		return pi.Name < pj.Name
	})
	return out
}

// All returns every registered profile in Names() order.
func All() []*Profile {
	names := Names()
	out := make([]*Profile, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}
