// Package isa defines the micro-operation model consumed by every core in
// this repository: operation classes, architectural registers, functional
// unit kinds and latencies.
//
// The simulator is trace driven and timing only: a MicroOp carries its
// dynamic register and memory dependences but no data values. This is the
// abstraction level at which the CASINO paper's mechanisms (issue
// scheduling, renaming, memory disambiguation) operate.
package isa

import "fmt"

// Class identifies the operation type of a micro-op.
type Class uint8

// Operation classes. Memory and branch classes get special handling in
// every core model; the rest differ only in functional unit and latency.
const (
	IntALU Class = iota // single-cycle integer op
	IntMul              // pipelined integer multiply
	IntDiv              // unpipelined integer divide
	FPAdd               // pipelined FP add/sub/convert
	FPMul               // pipelined FP multiply
	FPDiv               // unpipelined FP divide/sqrt
	Load                // memory read
	Store               // memory write
	Branch              // conditional or unconditional control flow
	NumClasses
)

var classNames = [NumClasses]string{
	"IntALU", "IntMul", "IntDiv", "FPAdd", "FPMul", "FPDiv", "Load", "Store", "Branch",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsFP reports whether the class uses the floating-point register file.
func (c Class) IsFP() bool { return c == FPAdd || c == FPMul || c == FPDiv }

// FUKind is the functional unit pool an operation executes on.
type FUKind uint8

// Functional unit kinds, matching Table I of the paper
// (2 integer ALUs, 2 FP units, 2 AGUs).
const (
	FUIntALU FUKind = iota
	FUFP
	FUAGU
	NumFUKinds
)

var fuNames = [NumFUKinds]string{"IntALU", "FP", "AGU"}

func (k FUKind) String() string {
	if int(k) < len(fuNames) {
		return fuNames[k]
	}
	return fmt.Sprintf("FUKind(%d)", uint8(k))
}

// FU returns the functional unit pool c executes on. Loads and stores use
// the AGUs for address generation; the cache access itself is modelled by
// the memory hierarchy.
func (c Class) FU() FUKind {
	switch c {
	case FPAdd, FPMul, FPDiv:
		return FUFP
	case Load, Store:
		return FUAGU
	default:
		return FUIntALU
	}
}

// ExecLatency returns the execution latency, in cycles, of class c on its
// functional unit, excluding any cache access time for memory operations.
// Latencies follow common 2 GHz embedded-class cores (and Multi2Sim
// defaults).
func (c Class) ExecLatency() int {
	switch c {
	case IntALU, Branch:
		return 1
	case IntMul:
		return 3
	case IntDiv:
		return 12
	case FPAdd:
		return 3
	case FPMul:
		return 4
	case FPDiv:
		return 12
	case Load, Store:
		return 1 // address generation; memory time is added separately
	default:
		return 1
	}
}

// Pipelined reports whether the functional unit for c accepts a new
// operation every cycle (true) or blocks until completion (false).
func (c Class) Pipelined() bool { return c != IntDiv && c != FPDiv }

// Reg is an architectural register identifier. The integer and FP register
// files occupy disjoint ranges so a Reg is unambiguous on its own.
// RegNone marks an absent operand.
type Reg uint8

// Architectural register file sizes (x86-flavoured: 16 integer + 8 FP,
// matching the Multi2Sim model; Table I's 14-entry FP PRF must exceed the
// architectural FP file).
const (
	NumIntRegs = 16
	NumFPRegs  = 8
	// RegNone marks an absent source or destination operand.
	RegNone Reg = 255
)

// FirstFPReg is the Reg value of the first floating-point register.
const FirstFPReg Reg = NumIntRegs

// NumArchRegs is the total number of architectural registers.
const NumArchRegs = NumIntRegs + NumFPRegs

// IntReg returns the i'th integer architectural register.
func IntReg(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: IntReg(%d) out of range", i))
	}
	return Reg(i)
}

// FPReg returns the i'th floating-point architectural register.
func FPReg(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: FPReg(%d) out of range", i))
	}
	return FirstFPReg + Reg(i)
}

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r != RegNone && r >= FirstFPReg }

// Valid reports whether r names a register (not RegNone).
func (r Reg) Valid() bool { return r != RegNone && r < NumArchRegs }

func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r < FirstFPReg:
		return fmt.Sprintf("r%d", r)
	case r < NumArchRegs:
		return fmt.Sprintf("f%d", r-FirstFPReg)
	default:
		return fmt.Sprintf("Reg(%d)", uint8(r))
	}
}

// MicroOp is one dynamic instruction in a trace.
//
// Seq is the dynamic sequence number (program order). For memory ops, Addr
// and Size give the effective byte range. For branches, Taken and Addr
// record the resolved outcome that the front end's predictor is checked
// against: a branch has no memory address, so Addr holds its target (read
// it through Target). The fields are ordered so the struct packs into 32
// bytes: three words, then six one-byte fields and two bytes of padding.
type MicroOp struct {
	Seq   uint64
	PC    uint64
	Addr  uint64 // effective address (Load, Store) or resolved target (Branch)
	Class Class
	Dst   Reg // RegNone if no register result
	Src1  Reg // RegNone if absent
	Src2  Reg // RegNone if absent
	Size  uint8
	Taken bool
}

// Target returns a branch's resolved target, or 0 for any other op.
func (u *MicroOp) Target() uint64 {
	if u.Class == Branch {
		return u.Addr
	}
	return 0
}

// HasDst reports whether the op writes a register.
func (u *MicroOp) HasDst() bool { return u.Dst.Valid() }

// Overlaps reports whether the memory byte ranges of u and v intersect.
// Non-memory operations never overlap.
func (u *MicroOp) Overlaps(v *MicroOp) bool {
	if !u.Class.IsMem() || !v.Class.IsMem() {
		return false
	}
	ue := u.Addr + uint64(u.Size)
	ve := v.Addr + uint64(v.Size)
	return u.Addr < ve && v.Addr < ue
}

func (u *MicroOp) String() string {
	s := fmt.Sprintf("#%d pc=%#x %s dst=%s src=[%s,%s]", u.Seq, u.PC, u.Class, u.Dst, u.Src1, u.Src2)
	if u.Class.IsMem() {
		s += fmt.Sprintf(" addr=%#x/%d", u.Addr, u.Size)
	}
	if u.Class == Branch {
		s += fmt.Sprintf(" taken=%v target=%#x", u.Taken, u.Addr)
	}
	return s
}
