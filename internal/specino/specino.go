// Package specino implements the idealized SpecInO[WS,SO] limit study of
// §II-C (Figure 2): a conventional stall-on-use in-order core supplemented
// with a small speculative scheduling window that slides over the IQ,
// issuing ready instructions out of program order. Renaming and memory
// disambiguation are perfect (the figure's premise: "assuming that
// instructions are renamed properly and the architectural state is updated
// correctly"), which isolates the scheduling contribution.
package specino

import (
	"fmt"
	"math/bits"
	"os"

	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/eventq"
	"casino/internal/frontend"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/pipeline"
	"casino/internal/ptrace"
	"casino/internal/trace"
)

// NoScoreboard disables the producer-push wakeup path and recomputes
// readiness by scanning producer state on every check — the original
// poll-based oracle, retained for cross-validation. The env var mirrors
// the CASINO_NO_FASTFORWARD kill switch; tests flip the variable directly.
var NoScoreboard = os.Getenv("CASINO_NO_SCOREBOARD") != ""

// Config holds the limit-study parameters.
type Config struct {
	Width      int
	IQSize     int  // 16, as the Table I in-order IQ
	WS         int  // window size: instructions examined per cycle
	SO         int  // sliding offset when nothing in the window is ready
	NonMemOnly bool // window may issue only non-memory instructions
	FrontDepth int
}

// DefaultConfig returns SpecInO[2,1] over the Table I in-order machine.
func DefaultConfig(ws, so int) Config {
	return Config{Width: 2, IQSize: 16, WS: ws, SO: so, FrontDepth: 5}
}

// Validate reports a configuration New would reject.
func (c Config) Validate() error {
	if c.WS < 1 || c.SO < 1 {
		return fmt.Errorf("specino: WS and SO must be positive")
	}
	if c.IQSize < 1 || c.IQSize > 64 {
		return fmt.Errorf("specino: IQSize %d must be in [1,64] — the issue mask is one dense uint64 word", c.IQSize)
	}
	return nil
}

// Core is the idealized SpecInO machine.
//
// The program-ordered window is held in structure-of-arrays form: index 0
// is the oldest in-flight instruction and n entries are live, so the
// per-cycle kernel walks dense int64/uint8 slices and one uint64 issue
// mask instead of chasing per-entry heap pointers. Producers are
// identified by dispatch sequence number (dseq): the entry with dseq d
// lives at index d-headDseq, and d < headDseq means it already committed
// (a committed producer is always ready — its completion preceded its
// commit cycle).
type Core struct {
	cfg  Config
	now  int64
	fe   *frontend.FrontEnd
	hier *mem.Hierarchy
	fus  *pipeline.FUPool
	acct *energy.Accountant
	wq   *eventq.Queue // shared wakeup queue (event-driven clock)

	n       int
	ops     []*isa.MicroOp
	done    []int64 // completion cycle, valid once issued
	readyT  []int64 // latest completion among this entry's issued producers
	pending []uint8 // producers not yet issued (push-wakeup mode)
	prodA   []int64 // dseq of Src1's writer, -1 = none (scan-oracle state)
	prodB   []int64 // dseq of Src2's writer, -1 = none
	stf     []int64 // dseq of the overlapping older store to forward from, -1 = none
	wHead   []int32 // head of the entry's waiter list, -1 = empty

	unissued uint64 // bit i set = entry i not yet issued
	winPos   int    // window offset into the IQ
	headDseq int64  // dseq of entry 0

	lastWriter [isa.NumArchRegs]int64 // dseq of each register's last writer, -1 = none

	// In-flight stores, oldest first, as a ring: commit retires stores in
	// program order, so pruning is always a head pop (O(1) amortized).
	stDseq        []int64
	stOps         []*isa.MicroOp
	stHead, stLen int

	// Waiter-node pool: singly linked lists threaded through wNext, nodes
	// recycled through a free list so steady state allocates nothing.
	wNext []int32
	wDseq []int64 // waiting consumer's dseq
	wFree int32

	committed uint64

	pt  *ptrace.Recorder // optional pipeline-event recorder (nil = off)
	cpi ptrace.CPI       // per-cycle stall attribution

	// OnCommit, when non-nil, observes each committed sequence number
	// (architectural-invariant checking in tests).
	OnCommit func(seq uint64)

	// Statistics.
	SpecIssued uint64 // issued by the sliding window
	HeadIssued uint64 // issued by the in-order head engine
	OoOIssued  uint64 // issued while an older instruction was still waiting
}

// New builds a SpecInO limit-study core over the trace.
func New(cfg Config, tr *trace.Trace, hier *mem.Hierarchy, acct *energy.Accountant) *Core {
	return NewAt(cfg, tr, 0, nil, hier, acct)
}

// NewAt builds a core whose frontend starts at trace position start with an
// injected (possibly pre-trained) branch predictor; pred == nil allocates a
// fresh one. The sampled-simulation driver uses it to open detailed windows
// mid-trace against warmed shared state.
func NewAt(cfg Config, tr *trace.Trace, start int, pred *bpred.Predictor, hier *mem.Hierarchy, acct *energy.Accountant) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{cfg: cfg, hier: hier, fus: pipeline.ScaledFUPool(cfg.Width), acct: acct}
	q := cfg.IQSize
	c.ops = make([]*isa.MicroOp, q)
	c.done = make([]int64, q)
	c.readyT = make([]int64, q)
	c.pending = make([]uint8, q)
	c.prodA = make([]int64, q)
	c.prodB = make([]int64, q)
	c.stf = make([]int64, q)
	c.wHead = make([]int32, q)
	c.stDseq = make([]int64, q)
	c.stOps = make([]*isa.MicroOp, q)
	c.wFree = -1
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
	}
	c.wq = eventq.New(2*cfg.IQSize + 16)
	c.fus.SetWakeQueue(c.wq)
	hier.SetWakeQueue(c.wq)
	rd := tr.Reader()
	rd.Seek(start)
	if pred == nil {
		pred = bpred.NewPredictor()
	}
	c.fe = frontend.New(
		frontend.Config{Width: cfg.Width, Depth: cfg.FrontDepth, BufCap: 2 * cfg.Width},
		rd, pred, hier, acct)
	c.fe.SetWakeQueue(c.wq)
	return c
}

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// Committed returns committed op count.
func (c *Core) Committed() uint64 { return c.committed }

// Done reports pipeline drain.
func (c *Core) Done() bool { return c.fe.Done() && c.n == 0 }

// SpecFraction returns the fraction of instructions issued by the sliding
// window itself.
func (c *Core) SpecFraction() float64 {
	total := c.SpecIssued + c.HeadIssued
	if total == 0 {
		return 0
	}
	return float64(c.SpecIssued) / float64(total)
}

// OoOFraction returns the fraction of instructions issued out of program
// order — issued while at least one older instruction was still waiting —
// the paper's §II-C "62%" definition (it counts head-engine issues that
// slipped past stalled window-skipped instructions too).
func (c *Core) OoOFraction() float64 {
	total := c.SpecIssued + c.HeadIssued
	if total == 0 {
		return 0
	}
	return float64(c.OoOIssued) / float64(total)
}

// Cycle advances one clock.
func (c *Core) Cycle() {
	now := c.now
	committed0 := c.committed
	c.wq.Drain(now)
	c.commit(now)
	c.issue(now)
	c.dispatch()
	c.fe.Cycle(now)
	c.tickCPI(now, committed0)
	c.now++
	c.acct.Cycles++
}

// commit drains completed instructions in order from the IQ head, then
// shifts the window arrays once for the whole batch.
func (c *Core) commit(now int64) {
	k := 0
	for k < c.cfg.Width && k < c.n {
		if c.unissued&(uint64(1)<<uint(k)) != 0 || c.done[k] > now {
			break
		}
		op := c.ops[k]
		if op.Class == isa.Store {
			// Perfect store buffering: retire directly (timing charged at
			// issue; the limit study has no SB stalls). In-order commit
			// makes the committing store the store ring's head.
			c.hier.Store(op.PC, op.Addr, now)
			c.acct.L1Access++
			c.popStore()
		}
		if c.OnCommit != nil {
			c.OnCommit(op.Seq)
		}
		c.emit(now, op.Seq, ptrace.KindCommit)
		c.committed++
		k++
	}
	if k > 0 {
		c.shift(k)
		c.winPos -= k
		if c.winPos < 0 {
			c.winPos = 0
		}
	}
}

// shift retires the k oldest entries by sliding every parallel array left.
// Committed entries never hold waiter lists (their waiters fired at issue)
// and their dseqs drop below headDseq, which is what marks producer
// references to them as "always ready".
func (c *Core) shift(k int) {
	m := c.n - k
	copy(c.ops[:m], c.ops[k:c.n])
	copy(c.done[:m], c.done[k:c.n])
	copy(c.readyT[:m], c.readyT[k:c.n])
	copy(c.pending[:m], c.pending[k:c.n])
	copy(c.prodA[:m], c.prodA[k:c.n])
	copy(c.prodB[:m], c.prodB[k:c.n])
	copy(c.stf[:m], c.stf[k:c.n])
	copy(c.wHead[:m], c.wHead[k:c.n])
	for i := m; i < c.n; i++ {
		c.ops[i] = nil
	}
	c.unissued >>= uint(k)
	c.headDseq += int64(k)
	c.n = m
}

func (c *Core) issue(now int64) {
	slots := c.cfg.Width
	// In-order issue at the IQ head (the conventional InO engine): the
	// issue mask finds the next unissued entry in one TrailingZeros64
	// instead of a linear walk over issued entries.
	idx := 0
	for slots > 0 {
		m := c.unissued >> uint(idx)
		if m == 0 {
			idx = c.n // every remaining entry has issued
			break
		}
		j := idx + bits.TrailingZeros64(m)
		idx = j
		if !c.readyIdx(j, now) || !c.fus.Issue(c.ops[j].Class, now) {
			break
		}
		if c.unissued&((uint64(1)<<uint(j))-1) != 0 {
			c.OoOIssued++
		}
		c.execute(j, now)
		if c.pt != nil {
			c.emit(now, c.ops[j].Seq, ptrace.KindIssue)
			c.emit(c.done[j], c.ops[j].Seq, ptrace.KindComplete)
		}
		c.HeadIssued++
		slots--
		idx = j + 1
	}
	// The SpecInO window examines WS entries at winPos.
	if c.winPos < idx+1 {
		c.winPos = idx + 1 // window runs ahead of the stalled head region
	}
	issuedFromWindow := false
	for w := 0; w < c.cfg.WS && slots > 0; w++ {
		p := c.winPos + w
		if p >= c.n {
			break
		}
		if c.unissued&(uint64(1)<<uint(p)) == 0 {
			continue
		}
		if c.cfg.NonMemOnly && c.ops[p].Class.IsMem() {
			continue
		}
		if !c.readyIdx(p, now) || !c.fus.Issue(c.ops[p].Class, now) {
			continue
		}
		if c.unissued&((uint64(1)<<uint(p))-1) != 0 {
			c.OoOIssued++
		}
		c.execute(p, now)
		if c.pt != nil {
			c.emit(now, c.ops[p].Seq, ptrace.KindIssueSpec)
			c.emit(c.done[p], c.ops[p].Seq, ptrace.KindComplete)
		}
		c.SpecIssued++
		issuedFromWindow = true
		slots--
	}
	if !issuedFromWindow {
		// Nothing ready in the window: slide towards younger instructions.
		// The window never moves backwards — instructions it has passed
		// can only issue when they reach the IQ head, which is exactly why
		// large sliding offsets hurt (§II-C).
		c.winPos += c.cfg.SO
		if c.winPos > c.n {
			c.winPos = c.n
		}
	}
}

// readyIdx reports whether entry i can issue at cycle now. In push-wakeup
// mode this is two dense loads: producers decrement pending and raise
// readyT when they issue, so no producer state is revisited. The scan
// oracle recomputes the same answer from producer dseqs.
func (c *Core) readyIdx(i int, now int64) bool {
	if NoScoreboard {
		r, ok := c.readyInfo(i)
		return ok && r <= now
	}
	return c.pending[i] == 0 && c.readyT[i] <= now
}

// readyInfo returns the cycle entry i's operands complete; ok is false
// while a producer has not issued. Committed producers (dseq < headDseq)
// completed at or before their commit cycle, so they never bound r from
// above now.
func (c *Core) readyInfo(i int) (int64, bool) {
	if !NoScoreboard {
		return c.readyT[i], c.pending[i] == 0
	}
	var r int64
	for _, d := range [...]int64{c.prodA[i], c.prodB[i], c.stf[i]} {
		if d < c.headDseq {
			continue // no producer, or it already committed
		}
		pi := int(d - c.headDseq)
		if c.unissued&(uint64(1)<<uint(pi)) != 0 {
			return 0, false
		}
		if c.done[pi] > r {
			r = c.done[pi]
		}
	}
	return r, true
}

func (c *Core) execute(i int, now int64) {
	op := c.ops[i]
	c.unissued &^= uint64(1) << uint(i)
	var done int64
	switch op.Class {
	case isa.Load:
		agu := now + int64(op.Class.ExecLatency())
		if c.stf[i] >= 0 {
			done = agu + int64(c.hier.Config().L1Latency) // forwarded
		} else {
			done, _ = c.hier.Load(op.PC, op.Addr, agu)
			c.acct.L1Access++
		}
	case isa.Branch:
		done = now + int64(op.Class.ExecLatency())
		c.fe.BranchResolved(op.Seq, done)
	default:
		done = now + int64(op.Class.ExecLatency())
	}
	c.done[i] = done
	if !NoScoreboard {
		c.fire(i, done)
	}
	// A completion next cycle needs no wakeup: this issue already makes the
	// current cycle non-idle, so no jump can start before the effect lands.
	if done > now+1 {
		c.wq.Wake(done)
	}
}

// fire pushes entry i's completion to every registered waiter. Waiters are
// identified by dseq: a waiting consumer can neither issue nor commit
// before its producer issues, so the reference is always live.
func (c *Core) fire(i int, done int64) {
	for id := c.wHead[i]; id >= 0; {
		ci := int(c.wDseq[id] - c.headDseq)
		c.pending[ci]--
		if done > c.readyT[ci] {
			c.readyT[ci] = done
		}
		next := c.wNext[id]
		c.wNext[id] = c.wFree
		c.wFree = id
		id = next
	}
	c.wHead[i] = -1
}

// watch registers consumer ci on producer dseq d: an already-issued
// producer contributes its completion time immediately, an unissued one
// gets a waiter node and bumps ci's pending count.
func (c *Core) watch(d int64, ci int) {
	if NoScoreboard || d < c.headDseq {
		return // scan mode, no producer, or the producer committed
	}
	pi := int(d - c.headDseq)
	if c.unissued&(uint64(1)<<uint(pi)) == 0 {
		if t := c.done[pi]; t > c.readyT[ci] {
			c.readyT[ci] = t
		}
		return
	}
	c.pending[ci]++
	id := c.allocNode()
	c.wDseq[id] = c.headDseq + int64(ci)
	c.wNext[id] = c.wHead[pi]
	c.wHead[pi] = id
}

func (c *Core) allocNode() int32 {
	if c.wFree >= 0 {
		id := c.wFree
		c.wFree = c.wNext[id]
		return id
	}
	c.wNext = append(c.wNext, 0)
	c.wDseq = append(c.wDseq, 0)
	return int32(len(c.wNext) - 1)
}

func (c *Core) dispatch() {
	for k := 0; k < c.cfg.Width && c.n < c.cfg.IQSize; k++ {
		op := c.fe.Pop()
		if op == nil {
			return
		}
		i := c.n
		c.ops[i] = op
		c.done[i] = 0
		c.readyT[i] = 0
		c.pending[i] = 0
		c.prodA[i] = -1
		c.prodB[i] = -1
		c.stf[i] = -1
		c.wHead[i] = -1
		c.unissued |= uint64(1) << uint(i)
		if op.Src1.Valid() {
			c.prodA[i] = c.lastWriter[op.Src1]
			c.watch(c.prodA[i], i)
		}
		if op.Src2.Valid() {
			c.prodB[i] = c.lastWriter[op.Src2]
			c.watch(c.prodB[i], i)
		}
		if op.Class == isa.Load {
			// Oracle disambiguation: find the youngest overlapping older
			// in-flight store (must forward from it when it completes).
			for s := c.stLen - 1; s >= 0; s-- {
				j := c.stIdx(s)
				if c.stOps[j].Overlaps(op) {
					c.stf[i] = c.stDseq[j]
					c.watch(c.stf[i], i)
					break
				}
			}
		}
		if op.HasDst() {
			c.lastWriter[op.Dst] = c.headDseq + int64(i)
		}
		if op.Class == isa.Store {
			c.pushStore(c.headDseq+int64(i), op)
		}
		c.n++
		c.emit(c.now, op.Seq, ptrace.KindDispatch)
	}
}

// --- in-flight store ring ---

func (c *Core) stIdx(s int) int {
	j := c.stHead + s
	if j >= len(c.stOps) {
		j -= len(c.stOps)
	}
	return j
}

func (c *Core) pushStore(d int64, op *isa.MicroOp) {
	j := c.stIdx(c.stLen)
	c.stDseq[j] = d
	c.stOps[j] = op
	c.stLen++
}

func (c *Core) popStore() {
	c.stOps[c.stHead] = nil
	c.stHead++
	if c.stHead == len(c.stOps) {
		c.stHead = 0
	}
	c.stLen--
}

// SetPipeTrace installs (or removes, with nil) a pipeline-event recorder.
// The front end shares the recorder so fetch events join the same stream.
func (c *Core) SetPipeTrace(rec *ptrace.Recorder) {
	c.pt = rec
	c.fe.SetPipeTrace(rec)
}

// CPIStack exposes the per-cycle stall attribution accumulated so far.
func (c *Core) CPIStack() *ptrace.CPI { return &c.cpi }

// Recycle returns pooled resources (the branch predictor) at end of run.
// The core must not be cycled afterwards.
func (c *Core) Recycle() { c.fe.RecyclePredictor() }

func (c *Core) emit(cycle int64, seq uint64, k ptrace.Kind) {
	if c.pt != nil {
		c.pt.Emit(ptrace.Event{Cycle: cycle, Seq: seq, Kind: k})
	}
}

// tickCPI attributes the cycle that just executed to exactly one CPI bucket
// and, when a recorder is active, publishes non-base cycles as stall events
// tagged with the culprit instruction.
func (c *Core) tickCPI(now int64, committed0 uint64) {
	b, seq := c.classifyCycle(now, committed0)
	c.cpi.Add(b)
	if c.pt != nil && b != ptrace.BucketBase {
		c.pt.Emit(ptrace.Event{Cycle: now, Seq: seq, Kind: ptrace.KindStall, Stall: b})
	}
}

// stfBlocked reports whether entry i's forwarding store is still holding it
// back: unissued, or issued but not complete. A committed store (dseq below
// headDseq) finished at or before its commit cycle, so it never blocks.
func (c *Core) stfBlocked(i int, now int64) bool {
	d := c.stf[i]
	if d < c.headDseq {
		return false
	}
	si := int(d - c.headDseq)
	return c.unissued&(uint64(1)<<uint(si)) != 0 || c.done[si] > now
}

// classifyCycle decides the cycle's CPI bucket: base if anything committed,
// otherwise the reason the IQ head (the commit bottleneck) has not retired.
// The limit study has perfect renaming and store buffering, so the only
// possible blockers are execution latency, dataflow, and the front end.
func (c *Core) classifyCycle(now int64, committed0 uint64) (ptrace.Bucket, uint64) {
	if c.committed > committed0 {
		return ptrace.BucketBase, 0
	}
	if c.n > 0 {
		op := c.ops[0]
		if c.unissued&1 == 0 {
			// done > now always holds here: a completed head with a free
			// commit slot (nothing committed) would have retired this cycle.
			if op.Class.IsMem() {
				return ptrace.BucketDCache, op.Seq
			}
			return ptrace.BucketExec, op.Seq
		}
		if r, ok := c.readyInfo(0); !ok || r > now {
			if c.stfBlocked(0, now) {
				// Oracle disambiguation holds the load for an older store.
				return ptrace.BucketDCache, op.Seq
			}
			return ptrace.BucketSrc, op.Seq
		}
		return ptrace.BucketFU, op.Seq
	}
	if !c.fe.Done() {
		return ptrace.BucketICache, 0
	}
	return ptrace.BucketDrain, 0
}
