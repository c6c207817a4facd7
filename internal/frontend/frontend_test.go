package frontend

import (
	"testing"

	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/trace"
)

func mkTrace(ops []isa.MicroOp) *trace.Trace {
	for i := range ops {
		ops[i].Seq = uint64(i)
	}
	return &trace.Trace{Name: "t", Ops: ops}
}

func alu(pc uint64) isa.MicroOp {
	return isa.MicroOp{PC: pc, Class: isa.IntALU, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone}
}

// newFE builds a front end with a pre-warmed L1I so that small unit tests
// are not dominated by cold instruction misses.
func newFE(tr *trace.Trace) *FrontEnd {
	h := mem.NewHierarchy(mem.DefaultConfig())
	for i := range tr.Ops {
		h.Fetch(tr.Ops[i].PC, 0)
	}
	return New(Config{Width: 2, Depth: 5, BufCap: 8}, tr.Reader(),
		bpred.NewPredictor(), h, energy.NewAccountant())
}

// newColdFE builds a front end with a cold L1I.
func newColdFE(tr *trace.Trace) *FrontEnd {
	return New(Config{Width: 2, Depth: 5, BufCap: 8}, tr.Reader(),
		bpred.NewPredictor(), mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
}

func TestFetchWidth(t *testing.T) {
	tr := mkTrace([]isa.MicroOp{alu(0x100), alu(0x104), alu(0x108), alu(0x10c), alu(0x110)})
	f := newFE(tr)
	f.Cycle(0)
	if f.BufLen() != 2 {
		t.Fatalf("fetched %d ops in one cycle, want 2 (width)", f.BufLen())
	}
	f.Cycle(1)
	if f.BufLen() != 4 {
		t.Fatalf("BufLen = %d", f.BufLen())
	}
	if op := f.Peek(0); op == nil || op.Seq != 0 {
		t.Errorf("Peek(0) = %v", op)
	}
	if op := f.Pop(); op.Seq != 0 {
		t.Errorf("Pop = %v", op)
	}
	if f.Peek(0).Seq != 1 {
		t.Error("Pop did not shift buffer")
	}
	if f.Peek(99) != nil || f.Peek(-1) != nil {
		t.Error("out-of-range Peek")
	}
}

func TestBufCapLimitsFetch(t *testing.T) {
	ops := make([]isa.MicroOp, 20)
	for i := range ops {
		ops[i] = alu(0x100 + uint64(i)*4)
	}
	f := newFE(mkTrace(ops))
	for c := int64(0); c < 20; c++ {
		f.Cycle(c)
	}
	if f.BufLen() != 8 {
		t.Errorf("buffer exceeded cap: %d", f.BufLen())
	}
}

func TestMispredictBlocksFetch(t *testing.T) {
	br := isa.MicroOp{PC: 0x104, Class: isa.Branch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: true, Addr: 0x200}
	tr := mkTrace([]isa.MicroOp{alu(0x100), br, alu(0x200), alu(0x204)})
	f := newFE(tr)
	f.Cycle(0) // fetches alu + branch; cold branch mispredicts (no BTB entry)
	if !f.Blocked() {
		t.Fatal("cold taken branch did not block fetch")
	}
	if f.BufLen() != 2 {
		t.Fatalf("BufLen = %d (branch itself must be buffered)", f.BufLen())
	}
	f.Cycle(1)
	if f.BufLen() != 2 {
		t.Error("fetch proceeded while blocked")
	}
	// Wrong branch seq: ignored.
	f.BranchResolved(99, 10)
	if !f.Blocked() {
		t.Error("unrelated resolution unblocked fetch")
	}
	f.BranchResolved(1, 10)
	if f.Blocked() {
		t.Fatal("resolution did not unblock")
	}
	f.Cycle(12) // 10 + depth(5) = 15 > 12: still stalled
	if f.BufLen() != 2 {
		t.Error("fetched during redirect penalty")
	}
	f.Cycle(15)
	if f.BufLen() != 4 {
		t.Errorf("BufLen after redirect = %d", f.BufLen())
	}
	if f.Mispredicts != 1 {
		t.Errorf("Mispredicts = %d", f.Mispredicts)
	}
}

func TestSquashRefetches(t *testing.T) {
	ops := make([]isa.MicroOp, 10)
	for i := range ops {
		ops[i] = alu(0x100 + uint64(i)*4)
	}
	f := newFE(mkTrace(ops))
	for c := int64(0); c < 4; c++ {
		f.Cycle(c)
	}
	for i := 0; i < 4; i++ {
		f.Pop()
	}
	f.Squash(2, 100) // refetch from op 2
	if f.BufLen() != 0 {
		t.Fatal("squash left buffer populated")
	}
	f.Cycle(101) // within redirect penalty
	if f.BufLen() != 0 {
		t.Error("fetched during squash penalty")
	}
	f.Cycle(105)
	if op := f.Peek(0); op == nil || op.Seq != 2 {
		t.Fatalf("refetch started at %v, want seq 2", op)
	}
}

func TestICacheMissStalls(t *testing.T) {
	// Two ops on lines far apart: second line cold-misses.
	tr := mkTrace([]isa.MicroOp{alu(0x100), alu(0x100000)})
	f := newColdFE(tr)
	f.Cycle(0)
	// First line itself is a cold miss: fetch stalled immediately.
	if f.BufLen() != 0 {
		t.Fatalf("cold I-miss did not stall: buf=%d", f.BufLen())
	}
	if f.ICacheStalls != 1 {
		t.Errorf("ICacheStalls = %d", f.ICacheStalls)
	}
	// Eventually the line arrives and fetch proceeds.
	var c int64
	for c = 1; c < 10000 && f.BufLen() == 0; c++ {
		f.Cycle(c)
	}
	if f.BufLen() == 0 {
		t.Fatal("fetch never resumed after I-miss")
	}
}

func TestPredictedTakenBranchNoStall(t *testing.T) {
	// Train a loop branch, then confirm steady-state fetch flows through it.
	var ops []isa.MicroOp
	for i := 0; i < 50; i++ {
		ops = append(ops, alu(0x100),
			isa.MicroOp{PC: 0x104, Class: isa.Branch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: true, Addr: 0x100})
	}
	f := newFE(mkTrace(ops))
	var c int64
	for c = 0; c < 5000 && !f.Done(); c++ {
		f.Cycle(c)
		for f.BufLen() > 0 {
			op := f.Pop()
			if op.Class == isa.Branch && f.Blocked() {
				f.BranchResolved(op.Seq, c+1)
			}
		}
	}
	if !f.Done() {
		t.Fatal("front end never drained")
	}
	if f.Mispredicts > 5 {
		t.Errorf("trained loop branch mispredicted %d times", f.Mispredicts)
	}
}

func TestDone(t *testing.T) {
	f := newFE(mkTrace([]isa.MicroOp{alu(0x100)}))
	if f.Done() {
		t.Error("Done before fetch")
	}
	f.Cycle(0)
	if f.Done() {
		t.Error("Done with buffered op")
	}
	f.Pop()
	if !f.Done() {
		t.Error("not Done after drain")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config accepted")
		}
	}()
	New(Config{Width: 0, Depth: 1, BufCap: 4}, nil, nil, nil, nil)
}
