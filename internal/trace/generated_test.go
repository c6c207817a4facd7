package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"casino/internal/isa"
	"casino/internal/trace"
	"casino/internal/workload"
)

// The generator hashes each segment as it finishes it and seals the result;
// for every profile, at lengths around the segment size and at the
// benchmark's trace length, the sealed fingerprint must equal a fresh hash
// and the byte-wise oracle.
func TestGeneratedFingerprintSealed(t *testing.T) {
	for _, p := range workload.All() {
		for _, n := range []int{1, 2047, 2048, 2049, 75000} {
			for _, seed := range []int64{1, 7} {
				tr := workload.Generate(p, n, seed)
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", p.Name, n, seed, err)
				}
				fp, re, oracle := tr.Fingerprint(), tr.Refingerprint(), trace.ByteWiseFingerprint(tr.Ops)
				if fp != re || fp != oracle {
					t.Fatalf("%s n=%d seed=%d: sealed %#x, Refingerprint %#x, byte-wise %#x",
						p.Name, n, seed, fp, re, oracle)
				}
			}
		}
	}
}

// Every profile's trace survives Write and Read with identical ops and
// fingerprint: the codec carries a branch's Addr in the record's target
// field and back.
func TestCodecRoundTripAllProfiles(t *testing.T) {
	for _, p := range workload.All() {
		tr := workload.Generate(p, 20000, 3)
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatalf("%s: Write: %v", p.Name, err)
		}
		back, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: Read: %v", p.Name, err)
		}
		if !slices.Equal(back.Ops, tr.Ops) {
			t.Fatalf("%s: ops changed in the round trip", p.Name)
		}
		if back.Fingerprint() != tr.Fingerprint() {
			t.Fatalf("%s: fingerprint %#x became %#x", p.Name, tr.Fingerprint(), back.Fingerprint())
		}
	}
}

// benchTrace is the benchmark's trace length: 60k measured + 15k warm-up.
func benchTrace(tb testing.TB) *trace.Trace {
	p, err := workload.ByName("hmmer")
	if err != nil {
		tb.Fatal(err)
	}
	return workload.Generate(p, 75000, 1)
}

var sinkFP uint64

func BenchmarkRefingerprint(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFP = tr.Refingerprint()
	}
}

// FuzzTraceRead holds the codec to a round trip: whatever Read accepts
// must re-encode with Write and decode again to identical ops and an equal
// fingerprint.
func FuzzTraceRead(f *testing.F) {
	p, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	// A dozen kernel ops (past the register preamble) keep the seed small
	// enough for the fuzzer to minimize; Read renumbers Seq from 0.
	tr := workload.Generate(p, 100, 1)
	var buf bytes.Buffer
	if err := trace.Write(&buf, &trace.Trace{Name: tr.Name, Ops: tr.Ops[len(tr.Ops)-12:]}); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append([]byte("NOPE"), good[4:]...))
	// A branch record with its address field set: Read must reject it.
	var one bytes.Buffer
	br := isa.MicroOp{Class: isa.Branch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: true, Addr: 0x40}
	if err := trace.Write(&one, &trace.Trace{Name: "b", Ops: []isa.MicroOp{br}}); err != nil {
		f.Fatal(err)
	}
	mixed := one.Bytes()
	mixed[len(mixed)-30+12] = 1
	if _, err := trace.Read(bytes.NewReader(mixed)); err == nil {
		f.Fatal("branch record with an address accepted")
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := trace.Write(&out, tr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := trace.Read(&out)
		if err != nil {
			t.Fatalf("decode of re-encoded trace: %v", err)
		}
		if back.Name != tr.Name || len(back.Ops) != len(tr.Ops) {
			t.Fatalf("round trip: name %q/%q, %d/%d ops", tr.Name, back.Name, len(tr.Ops), len(back.Ops))
		}
		for i := range tr.Ops {
			if back.Ops[i] != tr.Ops[i] {
				t.Fatalf("op %d: %+v became %+v", i, tr.Ops[i], back.Ops[i])
			}
		}
		if back.Fingerprint() != tr.Fingerprint() {
			t.Fatalf("fingerprint %#x became %#x", tr.Fingerprint(), back.Fingerprint())
		}
	})
}
