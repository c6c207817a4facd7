package trace

import (
	"math/rand"
	"testing"

	"casino/internal/isa"
)

// byteWiseFingerprint is the reference FNV-1a trace hash: every field
// stepped one byte at a time, eight bytes per field, with the memory
// address and the branch target as two logical fields (a branch's Addr is
// its target). HashOps must agree with it bit for bit.
func byteWiseFingerprint(ops []isa.MicroOp) uint64 {
	h := FingerprintBasis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	for i := range ops {
		op := &ops[i]
		mix(op.Seq)
		mix(op.PC)
		addr := op.Addr
		if op.Class == isa.Branch {
			addr = 0
		}
		mix(addr)
		mix(op.Target())
		b := uint64(op.Class) | uint64(op.Dst)<<8 | uint64(op.Src1)<<16 | uint64(op.Src2)<<24 |
			uint64(op.Size)<<32
		if op.Taken {
			b |= 1 << 40
		}
		mix(b)
	}
	return h
}

// ByteWiseFingerprint exports the oracle to the external test package.
var ByteWiseFingerprint = byteWiseFingerprint

// byteWiseWord is the oracle for mixWord: FNV-1a over v's 8 bytes.
func byteWiseWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// zeroedWords returns random words with random bytes forced to zero, so
// zero runs of every length and position occur, plus the edge words.
func zeroedWords(rng *rand.Rand, n int) []uint64 {
	out := []uint64{0, ^uint64(0), 1, 1 << 63, 0xff, 0xff << 56, 0x00ff00ff00ff00ff, 0xff00ff00ff00ff00}
	for i := 0; i < n; i++ {
		v := rng.Uint64()
		mask := rng.Intn(256)
		for b := 0; b < 8; b++ {
			if mask&(1<<b) != 0 {
				v &^= 0xff << (8 * b)
			}
		}
		out = append(out, v)
	}
	return out
}

func TestMixWordMatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range zeroedWords(rng, 20000) {
		h := rng.Uint64()
		if got, want := mixWord(h, v), byteWiseWord(h, v); got != want {
			t.Fatalf("mixWord(%#x, %#x) = %#x, byte-wise %#x", h, v, got, want)
		}
	}
}

// randomOps builds ops whose fields mix zero and non-zero bytes.
func randomOps(rng *rand.Rand, n int) []isa.MicroOp {
	w := zeroedWords(rng, 3*n)
	ops := make([]isa.MicroOp, n)
	for i := range ops {
		ops[i] = isa.MicroOp{
			Seq: w[3*i], PC: w[3*i+1], Addr: w[3*i+2],
			Class: isa.Class(rng.Intn(int(isa.NumClasses))), Dst: isa.Reg(rng.Intn(256)),
			Src1: isa.Reg(rng.Intn(256)), Src2: isa.Reg(rng.Intn(256)),
			Size: uint8(rng.Intn(3) * 4), Taken: rng.Intn(2) == 0,
		}
	}
	return ops
}

func TestHashOpsMatchesByteWise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := randomOps(rng, 3000)
	want := byteWiseFingerprint(ops)
	if got := (&Trace{Ops: ops}).Refingerprint(); got != want {
		t.Fatalf("Refingerprint = %#x, byte-wise %#x", got, want)
	}
	if got := HashOps(FingerprintBasis, nil); got != FingerprintBasis {
		t.Errorf("empty trace hashes to %#x, want the basis", got)
	}
}

func TestHashOpsChunkingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := randomOps(rng, 500)
	want := HashOps(FingerprintBasis, ops)
	for trial := 0; trial < 200; trial++ {
		h := FingerprintBasis
		for lo := 0; lo < len(ops); {
			hi := lo + rng.Intn(40)
			if trial%2 == 0 {
				hi = lo + 1 + rng.Intn(len(ops))
			}
			hi = min(hi, len(ops))
			h = HashOps(h, ops[lo:hi])
			lo = hi
		}
		if h != want {
			t.Fatalf("trial %d: chunked hash %#x, one pass %#x", trial, h, want)
		}
	}
}
