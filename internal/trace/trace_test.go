package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"casino/internal/isa"
)

func sampleTrace() *Trace {
	ops := []isa.MicroOp{
		{Seq: 0, PC: 0x100, Class: isa.IntALU, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.RegNone},
		{Seq: 1, PC: 0x104, Class: isa.Load, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 0x1000, Size: 8},
		{Seq: 2, PC: 0x108, Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(3), Src2: isa.IntReg(1), Addr: 0x2000, Size: 4},
		{Seq: 3, PC: 0x10c, Class: isa.FPMul, Dst: isa.FPReg(0), Src1: isa.FPReg(1), Src2: isa.FPReg(2)},
		{Seq: 4, PC: 0x110, Class: isa.Branch, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Taken: true, Addr: 0x100},
	}
	return &Trace{Name: "sample", Ops: ops}
}

func TestReaderWalk(t *testing.T) {
	tr := sampleTrace()
	r := tr.Reader()
	if r.Done() {
		t.Fatal("fresh reader Done")
	}
	if op := r.Peek(0); op == nil || op.Seq != 0 {
		t.Fatalf("Peek(0) = %v", op)
	}
	if op := r.Peek(2); op == nil || op.Seq != 2 {
		t.Fatalf("Peek(2) = %v", op)
	}
	if op := r.Peek(-1); op != nil {
		t.Fatalf("Peek(-1) = %v, want nil", op)
	}
	var seqs []uint64
	for op := r.Next(); op != nil; op = r.Next() {
		seqs = append(seqs, op.Seq)
	}
	if len(seqs) != 5 || seqs[4] != 4 {
		t.Fatalf("walked %v", seqs)
	}
	if !r.Done() || r.Next() != nil {
		t.Error("exhausted reader should be Done and return nil")
	}
	r.Reset()
	if r.Pos() != 0 || r.Done() {
		t.Error("Reset did not rewind")
	}
	r.Advance(3)
	if r.Pos() != 3 {
		t.Errorf("Pos after Advance(3) = %d", r.Pos())
	}
	r.Advance(100)
	if r.Pos() != 5 {
		t.Errorf("Advance should clamp, Pos = %d", r.Pos())
	}
	r.Seek(-3)
	if r.Pos() != 0 {
		t.Errorf("Seek(-3) should clamp to 0, Pos = %d", r.Pos())
	}
	r.Seek(2)
	if op := r.Peek(0); op == nil || op.Seq != 2 {
		t.Errorf("after Seek(2) Peek = %v", op)
	}
}

func TestStats(t *testing.T) {
	m := sampleTrace().Stats()
	if m.Total != 5 {
		t.Errorf("Total = %d", m.Total)
	}
	if m.LoadFrac() != 0.2 || m.StoreFrac() != 0.2 || m.BranchFrac() != 0.2 || m.FPFrac() != 0.2 {
		t.Errorf("fractions: load=%v store=%v br=%v fp=%v", m.LoadFrac(), m.StoreFrac(), m.BranchFrac(), m.FPFrac())
	}
	if m.Taken != 1 {
		t.Errorf("Taken = %d", m.Taken)
	}
	if m.MemBytes != 12 {
		t.Errorf("MemBytes = %d", m.MemBytes)
	}
	if m.DistinctPCs != 5 {
		t.Errorf("DistinctPCs = %d", m.DistinctPCs)
	}
	if s := m.String(); !strings.Contains(s, "ops=5") {
		t.Errorf("Mix.String() = %q", s)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := sampleTrace()
	bad.Ops[2].Seq = 7
	if err := bad.Validate(); err == nil {
		t.Error("bad Seq accepted")
	}
	bad = sampleTrace()
	bad.Ops[1].Size = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-size load accepted")
	}
	bad = sampleTrace()
	bad.Ops[0].Dst = isa.Reg(200)
	if err := bad.Validate(); err == nil {
		t.Error("bad register accepted")
	}
	bad = sampleTrace()
	bad.Ops[0].Class = isa.NumClasses
	if err := bad.Validate(); err == nil {
		t.Error("bad class accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != tr.Name || len(got.Ops) != len(tr.Ops) {
		t.Fatalf("round trip mismatch: name=%q n=%d", got.Name, len(got.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Errorf("op %d: got %+v want %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated trace accepted")
	}
	// Corrupt the version field.
	raw2 := append([]byte(nil), raw...)
	raw2[4] = 0xFF
	if _, err := Read(bytes.NewReader(raw2)); err == nil {
		t.Error("bad version accepted")
	}
}

// A header is untrusted input: one claiming 2^32 ops with no records behind
// it must fail as truncated without reserving memory for the claim.
func TestCodecHugeCountHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Name: "h"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], 1<<32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated at op 0") {
		t.Fatalf("Read = %v, want truncated at op 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Errorf("Read allocated %d bytes for an empty body", got)
	}
}

// sampleRecords encodes sampleTrace and returns the file and the offset of
// its first 30-byte op record.
func sampleRecords(t *testing.T) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	return raw, len(raw) - 30*len(sampleTrace().Ops)
}

// The record keeps a memory address at rec[12:] and a branch target at
// rec[22:], as it did before MicroOp folded the two into Addr, so files
// written then decode to the same ops.
func TestCodecRecordLayout(t *testing.T) {
	raw, hdr := sampleRecords(t)
	for _, tc := range []struct {
		op           int
		addr, target uint64
	}{{1, 0x1000, 0}, {2, 0x2000, 0}, {4, 0, 0x100}} {
		rec := raw[hdr+30*tc.op:]
		if a, tg := binary.LittleEndian.Uint64(rec[12:]), binary.LittleEndian.Uint64(rec[22:]); a != tc.addr || tg != tc.target {
			t.Errorf("op %d: address field %#x, target field %#x; want %#x, %#x", tc.op, a, tg, tc.addr, tc.target)
		}
	}
}

// A record whose class does not use the field it sets is corrupt: Read
// names the op instead of letting the value alias the other field.
func TestCodecRejectsMixedAddrTarget(t *testing.T) {
	raw, hdr := sampleRecords(t)
	for _, tc := range []struct {
		op, field int
		want      string
	}{
		{4, 12, "op 4 is a Branch with address 0x1"},
		{1, 22, "op 1 is a Load with branch target 0x1"},
		{0, 22, "op 0 is a IntALU with branch target 0x1"},
	} {
		bad := append([]byte(nil), raw...)
		bad[hdr+30*tc.op+tc.field] = 1
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read = %v, want %q", err, tc.want)
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(pc, addr uint64, class, dst, s1, s2, size uint8, taken bool) bool {
		op := isa.MicroOp{
			Seq:   0,
			PC:    pc,
			Class: isa.Class(class % uint8(isa.NumClasses)),
			Dst:   isa.Reg(dst % isa.NumArchRegs),
			Src1:  isa.Reg(s1 % isa.NumArchRegs),
			Src2:  isa.Reg(s2 % isa.NumArchRegs),
			Addr:  addr,
			Size:  size%16 + 1,
			Taken: taken,
		}
		tr := &Trace{Name: "p", Ops: []isa.MicroOp{op}}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Ops[0] == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
