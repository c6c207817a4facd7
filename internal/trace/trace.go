// Package trace holds dynamic micro-op traces: the container, a replayable
// sequential reader used by core front ends, a compact binary codec, and
// mix statistics.
package trace

import (
	"fmt"
	"math/bits"
	"sync"

	"casino/internal/isa"
)

// Trace is an immutable dynamic instruction stream.
//
// Read-only contract: a Trace may be shared by any number of concurrently
// running cores (the sim package caches and reuses generated traces across
// an entire experiment matrix). After construction, nothing may write to
// Ops or hand out mutable access to it — cores receive ops as *isa.MicroOp
// only to avoid copies, never to modify them. Fingerprint captures the
// contents so the harness can verify the contract after a run.
type Trace struct {
	Name string
	Ops  []isa.MicroOp

	fpOnce sync.Once
	fp     uint64
}

// Fingerprint returns the trace's content hash, computing it on first use
// and memoizing it — a Trace is immutable after construction, so the hash
// is a stable identity (manifest builders call this once per figure). A
// trace built by Sealed returns the hash its builder computed. Code that
// wants to *verify* immutability must use Refingerprint, which always
// rehashes the ops.
func (t *Trace) Fingerprint() uint64 {
	t.fpOnce.Do(func() { t.fp = t.Refingerprint() })
	return t.fp
}

// Sealed returns a trace whose Fingerprint memo is already set to fp. The
// caller vouches that fp == HashOps(FingerprintBasis, ops); a builder that
// hashes ops while it produces them uses this to skip a second pass.
func Sealed(name string, ops []isa.MicroOp, fp uint64) *Trace {
	t := &Trace{Name: name, Ops: ops}
	t.fpOnce.Do(func() { t.fp = fp })
	return t
}

// Refingerprint computes the content hash of every op, unconditionally.
// Two traces with equal fingerprints replay identically; a changed
// fingerprint after a run means a core violated the read-only contract.
func (t *Trace) Refingerprint() uint64 { return HashOps(FingerprintBasis, t.Ops) }

// FingerprintBasis is the starting value of a trace fingerprint: the
// 64-bit FNV-1a offset basis.
const FingerprintBasis uint64 = 1469598103934665603

const fnvPrime uint64 = 1099511628211

// fnvPow[k] is fnvPrime^k mod 2^64. FNV-1a folds a byte b as
// h = (h ^ b) * prime; for b == 0 the xor is a no-op, so a run of k zero
// bytes is the single multiply h *= prime^k.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// HashOps folds ops into the running fingerprint h and returns the result:
// byte-wise FNV-1a over every architecturally relevant field of every op,
// each field as 8 little-endian bytes (the address and the target as two,
// see addrTarget). Starting from FingerprintBasis, hashing a trace in
// consecutive chunks gives the same value as hashing it in one pass.
func HashOps(h uint64, ops []isa.MicroOp) uint64 {
	for i := range ops {
		op := &ops[i]
		b := uint64(op.Class) | uint64(op.Dst)<<8 | uint64(op.Src1)<<16 | uint64(op.Src2)<<24 |
			uint64(op.Size)<<32
		if op.Taken {
			b |= 1 << 40
		}
		addr, target := addrTarget(op)
		h = mixWord(mixWord(mixWord(mixWord(mixWord(h, op.Seq), op.PC), addr), target), b)
	}
	return h
}

// addrTarget splits op.Addr into the (memory address, branch target) pair
// that the fingerprint and the codec keep as two fields, one of them zero.
func addrTarget(op *isa.MicroOp) (addr, target uint64) {
	if op.Class == isa.Branch {
		return 0, op.Addr
	}
	return op.Addr, 0
}

// mixWord is byte-wise FNV-1a over the 8 little-endian bytes of v, with
// each run of zero bytes folded into one multiply. The multiply that ends
// a non-zero byte's step is deferred (e = 1) and merged with the next
// run's, so each non-zero byte costs one xor and one multiply.
func mixWord(h, v uint64) uint64 {
	left, e := 8, 0
	for v != 0 {
		z := bits.TrailingZeros64(v) >> 3
		h *= fnvPow[e+z]
		v >>= 8 * z
		h ^= v & 0xff
		v >>= 8
		left -= z + 1
		e = 1
	}
	return h * fnvPow[e+left]
}

// Len returns the number of dynamic micro-ops.
func (t *Trace) Len() int { return len(t.Ops) }

// Reader returns a fresh sequential reader positioned at the first op.
func (t *Trace) Reader() *Reader { return &Reader{t: t} }

// Reader walks a trace in program order. Core front ends call Peek to see
// the next op and Advance to consume it; a branch mispredict does not move
// the reader (wrong-path work is modelled as fetch bubbles).
type Reader struct {
	t   *Trace
	pos int
}

// Peek returns the op at offset i from the cursor without consuming it,
// or nil if the trace is exhausted at that offset.
func (r *Reader) Peek(i int) *isa.MicroOp {
	p := r.pos + i
	if p < 0 || p >= len(r.t.Ops) {
		return nil
	}
	return &r.t.Ops[p]
}

// Next consumes and returns the next op, or nil at end of trace.
func (r *Reader) Next() *isa.MicroOp {
	if r.pos >= len(r.t.Ops) {
		return nil
	}
	op := &r.t.Ops[r.pos]
	r.pos++
	return op
}

// Advance consumes n ops (clamped at end of trace).
func (r *Reader) Advance(n int) {
	r.pos += n
	if r.pos > len(r.t.Ops) {
		r.pos = len(r.t.Ops)
	}
}

// Pos returns the cursor position (number of ops consumed).
func (r *Reader) Pos() int { return r.pos }

// Done reports whether the trace is exhausted.
func (r *Reader) Done() bool { return r.pos >= len(r.t.Ops) }

// Reset rewinds the reader to the start of the trace.
func (r *Reader) Reset() { r.pos = 0 }

// Seek positions the cursor at op index p (clamped to [0, Len]).
func (r *Reader) Seek(p int) {
	if p < 0 {
		p = 0
	}
	if p > len(r.t.Ops) {
		p = len(r.t.Ops)
	}
	r.pos = p
}

// Mix summarizes the composition of a trace.
type Mix struct {
	Total       uint64
	ByClass     [isa.NumClasses]uint64
	Branches    uint64
	Taken       uint64
	MemBytes    uint64
	DistinctPCs int
}

// LoadFrac returns the fraction of ops that are loads.
func (m *Mix) LoadFrac() float64 { return frac(m.ByClass[isa.Load], m.Total) }

// StoreFrac returns the fraction of ops that are stores.
func (m *Mix) StoreFrac() float64 { return frac(m.ByClass[isa.Store], m.Total) }

// BranchFrac returns the fraction of ops that are branches.
func (m *Mix) BranchFrac() float64 { return frac(m.Branches, m.Total) }

// FPFrac returns the fraction of ops that are floating point.
func (m *Mix) FPFrac() float64 {
	fp := m.ByClass[isa.FPAdd] + m.ByClass[isa.FPMul] + m.ByClass[isa.FPDiv]
	return frac(fp, m.Total)
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (m *Mix) String() string {
	return fmt.Sprintf("ops=%d load=%.1f%% store=%.1f%% branch=%.1f%% fp=%.1f%% pcs=%d",
		m.Total, 100*m.LoadFrac(), 100*m.StoreFrac(), 100*m.BranchFrac(), 100*m.FPFrac(), m.DistinctPCs)
}

// Stats computes the mix of the trace.
func (t *Trace) Stats() Mix {
	var m Mix
	pcs := make(map[uint64]struct{})
	for i := range t.Ops {
		op := &t.Ops[i]
		m.Total++
		m.ByClass[op.Class]++
		if op.Class == isa.Branch {
			m.Branches++
			if op.Taken {
				m.Taken++
			}
		}
		if op.Class.IsMem() {
			m.MemBytes += uint64(op.Size)
		}
		pcs[op.PC] = struct{}{}
	}
	m.DistinctPCs = len(pcs)
	return m
}

// Validate checks trace invariants: sequence numbers are consecutive from
// 0, memory ops have non-zero size, branches have targets, and register
// operands are in range. It returns the first violation found.
func (t *Trace) Validate() error {
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Seq != uint64(i) {
			return fmt.Errorf("trace %q: op %d has Seq %d", t.Name, i, op.Seq)
		}
		if op.Class >= isa.NumClasses {
			return fmt.Errorf("trace %q: op %d has bad class %d", t.Name, i, op.Class)
		}
		if op.Class.IsMem() && op.Size == 0 {
			return fmt.Errorf("trace %q: op %d is a %s with zero size", t.Name, i, op.Class)
		}
		for _, r := range [...]isa.Reg{op.Dst, op.Src1, op.Src2} {
			if r != isa.RegNone && !r.Valid() {
				return fmt.Errorf("trace %q: op %d has bad register %d", t.Name, i, r)
			}
		}
	}
	return nil
}
