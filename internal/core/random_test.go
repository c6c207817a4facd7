package core

import (
	"math/rand"
	"testing"

	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/trace"
)

// randomOps builds a structurally valid random micro-op trace: every
// source register is eventually produced (the preamble defines all), PCs
// advance, branches are consistent fall-through/loop shapes, and memory
// ops carry non-zero sizes.
func randomOps(rng *rand.Rand, n int) []isa.MicroOp {
	ops := make([]isa.MicroOp, 0, n+isa.NumArchRegs)
	pc := uint64(0x1000)
	// Preamble: define every register.
	for i := 0; i < isa.NumIntRegs; i++ {
		ops = append(ops, isa.MicroOp{PC: pc, Class: isa.IntALU, Dst: isa.IntReg(i), Src1: isa.RegNone, Src2: isa.RegNone})
		pc += 4
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		ops = append(ops, isa.MicroOp{PC: pc, Class: isa.FPAdd, Dst: isa.FPReg(i), Src1: isa.RegNone, Src2: isa.RegNone})
		pc += 4
	}
	intReg := func() isa.Reg { return isa.IntReg(rng.Intn(isa.NumIntRegs)) }
	fpReg := func() isa.Reg { return isa.FPReg(rng.Intn(isa.NumFPRegs)) }
	for len(ops) < n {
		var op isa.MicroOp
		op.PC = pc
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // int ALU
			op.Class = isa.IntALU
			op.Dst, op.Src1, op.Src2 = intReg(), intReg(), intReg()
		case 4: // FP
			op.Class = [3]isa.Class{isa.FPAdd, isa.FPMul, isa.FPDiv}[rng.Intn(3)]
			op.Dst, op.Src1, op.Src2 = fpReg(), fpReg(), fpReg()
		case 5: // mul/div
			op.Class = [2]isa.Class{isa.IntMul, isa.IntDiv}[rng.Intn(2)]
			op.Dst, op.Src1, op.Src2 = intReg(), intReg(), intReg()
		case 6, 7: // load (addresses within a small aliasing-prone pool)
			op.Class = isa.Load
			op.Dst, op.Src1, op.Src2 = intReg(), intReg(), isa.RegNone
			op.Addr = 0x10000 + uint64(rng.Intn(64))*8
			op.Size = uint8([3]int{4, 8, 2}[rng.Intn(3)])
		case 8: // store
			op.Class = isa.Store
			op.Dst, op.Src1, op.Src2 = isa.RegNone, intReg(), intReg()
			op.Addr = 0x10000 + uint64(rng.Intn(64))*8
			op.Size = uint8([3]int{4, 8, 2}[rng.Intn(3)])
		case 9: // not-taken conditional branch (keeps PCs linear)
			op.Class = isa.Branch
			op.Dst, op.Src1, op.Src2 = isa.RegNone, intReg(), isa.RegNone
			op.Taken = false
			op.Addr = pc + 64 // a branch's target
		}
		ops = append(ops, op)
		pc += 4
	}
	for i := range ops {
		ops[i].Seq = uint64(i)
	}
	return ops
}

// TestRandomTracesAllModes is the catch-all: many random traces, dense
// with same-address loads and stores, must run to completion with exact
// commit counts and conserved resources under every disambiguation and
// renaming mode.
func TestRandomTracesAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	modes := []DisambigMode{DisambigOSCA, DisambigNoLQ, DisambigFullLQ, DisambigAGIOrder}
	for iter := 0; iter < 25; iter++ {
		ops := randomOps(rng, 600+rng.Intn(600))
		mode := modes[iter%len(modes)]
		cfg := DefaultConfig()
		cfg.Disambig = mode
		if mode != DisambigOSCA {
			cfg.OSCASize = 0
		}
		if iter%8 >= 4 {
			cfg.Renaming = RenameConventional
		}
		tr := &trace.Trace{Name: "rand", Ops: append([]isa.MicroOp(nil), ops...)}
		if err := tr.Validate(); err != nil {
			t.Fatalf("generator produced invalid trace: %v", err)
		}
		hier := mem.NewHierarchy(mem.DefaultConfig())
		c := New(cfg, tr, hier, energy.NewAccountant())
		freeInt0, freeFP0 := c.rf.FreeCount(false), c.rf.FreeCount(true)
		cc := &commitChecker{t: t}
		c.SetPipeTrace(cc.recorder())
		for i := 0; i < 5_000_000 && !c.Done(); i++ {
			c.Cycle()
		}
		if !c.Done() {
			t.Fatalf("iter %d (%v/%v): livelock at %d/%d committed",
				iter, mode, cfg.Renaming, c.Committed(), tr.Len())
		}
		if c.Committed() != uint64(tr.Len()) {
			t.Fatalf("iter %d: committed %d of %d", iter, c.Committed(), tr.Len())
		}
		if c.rf.FreeCount(false) != freeInt0 || c.rf.FreeCount(true) != freeFP0 {
			t.Fatalf("iter %d: register leak", iter)
		}
		if c.dbUsed != 0 {
			t.Fatalf("iter %d: data buffer leak (%d)", iter, c.dbUsed)
		}
	}
}

// The same random traces must produce identical commit counts on every
// disambiguation mode (timing differs; architecture must not).
func TestRandomTraceCrossModeAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	ops := randomOps(rng, 1500)
	var cycles []int64
	for _, mode := range []DisambigMode{DisambigOSCA, DisambigNoLQ, DisambigFullLQ, DisambigAGIOrder} {
		cfg := DefaultConfig()
		cfg.Disambig = mode
		if mode != DisambigOSCA {
			cfg.OSCASize = 0
		}
		tr := &trace.Trace{Name: "rand", Ops: append([]isa.MicroOp(nil), ops...)}
		c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		run(t, c)
		if c.Committed() != uint64(tr.Len()) {
			t.Fatalf("%v: committed %d of %d", mode, c.Committed(), tr.Len())
		}
		cycles = append(cycles, c.Now())
	}
	// AGI ordering must not be faster than the speculative schemes on an
	// alias-dense trace... it can tie, but a large win would mean the
	// speculative paths are broken.
	if cycles[3] < cycles[0]*9/10 {
		t.Errorf("AGI ordering (%d cyc) much faster than OSCA scheme (%d cyc)", cycles[3], cycles[0])
	}
}

// TestOpRingRandomized drives opRing with a random interleaving of every
// operation and cross-checks each step against a naive slice model.
func TestOpRingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		capa := 1 + rng.Intn(24)
		r := newOpRing(capa)
		var model []*opEntry
		check := func(step int) {
			t.Helper()
			if r.len() != len(model) || r.cap() != capa {
				t.Fatalf("iter %d step %d: len/cap %d/%d, want %d/%d",
					iter, step, r.len(), r.cap(), len(model), capa)
			}
			for i := range model {
				if r.at(i) != model[i] {
					t.Fatalf("iter %d step %d: at(%d) mismatch", iter, step, i)
				}
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(6); {
			case op <= 1 && len(model) < capa:
				e := &opEntry{}
				r.pushBack(e)
				model = append(model, e)
			case op == 2 && len(model) > 0:
				if got := r.popFront(); got != model[0] {
					t.Fatalf("iter %d step %d: popFront mismatch", iter, step)
				}
				model = model[1:]
			case op == 3 && len(model) > 0:
				if got := r.popBack(); got != model[len(model)-1] {
					t.Fatalf("iter %d step %d: popBack mismatch", iter, step)
				}
				model = model[:len(model)-1]
			case op == 4 && len(model) > 0:
				k := rng.Intn(len(model))
				if got := r.removeAt(k); got != model[k] {
					t.Fatalf("iter %d step %d: removeAt(%d) mismatch", iter, step, k)
				}
				model = append(model[:k:k], model[k+1:]...)
			case op == 5:
				keep := map[*opEntry]bool{}
				for _, e := range model {
					keep[e] = rng.Intn(3) > 0
				}
				var wantDropped, kept []*opEntry
				for _, e := range model {
					if keep[e] {
						kept = append(kept, e)
					} else {
						wantDropped = append(wantDropped, e)
					}
				}
				var gotDropped []*opEntry
				r.filter(func(e *opEntry) bool { return keep[e] },
					func(e *opEntry) { gotDropped = append(gotDropped, e) })
				if len(gotDropped) != len(wantDropped) {
					t.Fatalf("iter %d step %d: filter dropped %d, want %d",
						iter, step, len(gotDropped), len(wantDropped))
				}
				for i := range wantDropped {
					if gotDropped[i] != wantDropped[i] {
						t.Fatalf("iter %d step %d: filter dropped order mismatch", iter, step)
					}
				}
				model = kept
			}
			check(step)
		}
	}
}

// TestEntryRecycleAfterCommit: on a branch-free, store-free trace nothing
// ever flushes, so every dispatched entry is recycled exactly once at
// commit and the freelist ends up holding every entry ever allocated.
func TestEntryRecycleAfterCommit(t *testing.T) {
	ops := make([]isa.MicroOp, 0, 800)
	pc := uint64(0x1000)
	for i := 0; i < isa.NumIntRegs; i++ {
		ops = append(ops, isa.MicroOp{PC: pc, Class: isa.IntALU, Dst: isa.IntReg(i), Src1: isa.RegNone, Src2: isa.RegNone})
		pc += 4
	}
	for len(ops) < 800 {
		d := len(ops) % isa.NumIntRegs
		ops = append(ops, isa.MicroOp{PC: pc, Class: isa.IntALU,
			Dst: isa.IntReg(d), Src1: isa.IntReg((d + 1) % isa.NumIntRegs), Src2: isa.IntReg((d + 3) % isa.NumIntRegs)})
		pc += 4
	}
	for i := range ops {
		ops[i].Seq = uint64(i)
	}
	tr := &trace.Trace{Name: "recycle", Ops: ops}
	c := New(DefaultConfig(), tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	run(t, c)
	if c.Committed() != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", c.Committed(), tr.Len())
	}
	if c.entryRecycle != uint64(tr.Len()) {
		t.Errorf("entryRecycle = %d, want %d (one recycle per committed op)", c.entryRecycle, tr.Len())
	}
	if len(c.free) != int(c.entryAllocs) {
		t.Errorf("freelist holds %d entries, %d were allocated (leak or double-recycle)",
			len(c.free), c.entryAllocs)
	}
	max := uint64(c.rob.cap())
	for i := range c.queues {
		max += uint64(c.queues[i].cap())
	}
	if c.entryAllocs > max {
		t.Errorf("entryAllocs = %d exceeds total in-flight capacity %d (pool not reusing)", c.entryAllocs, max)
	}
}

// TestEntryRecycleAfterFlush: alias-dense random traces under speculative
// NoLQ disambiguation flush on memory-order violations; squashed entries
// must return to the freelist (and be re-allocated on refetch) without
// leaks or double-recycles.
func TestEntryRecycleAfterFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sawFlushRecycle := false
	for iter := 0; iter < 12; iter++ {
		ops := randomOps(rng, 900)
		cfg := DefaultConfig()
		cfg.Disambig = DisambigNoLQ
		cfg.OSCASize = 0
		tr := &trace.Trace{Name: "rand", Ops: ops}
		c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		run(t, c)
		if len(c.free) != int(c.entryAllocs) {
			t.Fatalf("iter %d: freelist holds %d entries, %d allocated (leak or double-recycle)",
				iter, len(c.free), c.entryAllocs)
		}
		if c.entryRecycle < c.Committed() {
			t.Fatalf("iter %d: entryRecycle %d < committed %d", iter, c.entryRecycle, c.Committed())
		}
		// A violation squashes at least the victim load, which is then
		// refetched and recycled a second time at commit.
		if c.Violations > 0 && c.entryRecycle > c.Committed() {
			sawFlushRecycle = true
		}
	}
	if !sawFlushRecycle {
		t.Error("no iteration exercised the flush-recycle path (violations never squashed entries)")
	}
}
