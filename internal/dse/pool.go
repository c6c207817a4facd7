package dse

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// cellTask is one cell waiting for a pool worker. Tasks leave the queue
// oldest job first, then by phase, then by cell index, so a younger job
// only ever runs on a worker the older jobs have no queued cell for.
type cellTask struct {
	job, phase, index int
	run               func()
}

func (t cellTask) before(u cellTask) bool {
	if t.job != u.job {
		return t.job < u.job
	}
	if t.phase != u.phase {
		return t.phase < u.phase
	}
	return t.index < u.index
}

type taskHeap []cellTask

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(cellTask)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// cellPool is a fixed set of worker goroutines draining one priority
// queue of cell tasks shared by every running job.
type cellPool struct {
	mu      sync.Mutex
	ready   sync.Cond // signalled on push and on close
	tasks   taskHeap
	closed  bool
	workers sync.WaitGroup

	queued atomic.Int64 // len(tasks), readable without mu
	busy   atomic.Int64 // workers running a task
}

// newCellPool starts n workers.
func newCellPool(n int) *cellPool {
	p := &cellPool{}
	p.ready.L = &p.mu
	p.workers.Add(n)
	for i := 0; i < n; i++ {
		go p.work()
	}
	return p
}

func (p *cellPool) work() {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		for len(p.tasks) == 0 && !p.closed {
			p.ready.Wait()
		}
		if len(p.tasks) == 0 {
			p.mu.Unlock()
			return
		}
		t := heap.Pop(&p.tasks).(cellTask)
		p.queued.Add(-1)
		p.busy.Add(1)
		p.mu.Unlock()
		t.run()
		p.busy.Add(-1)
	}
}

// push queues tasks for the workers. The caller waits for their
// completion itself (each task's run signals it).
func (p *cellPool) push(tasks ...cellTask) {
	p.mu.Lock()
	for _, t := range tasks {
		heap.Push(&p.tasks, t)
	}
	p.queued.Add(int64(len(tasks)))
	p.mu.Unlock()
	p.ready.Broadcast()
}

// close lets the workers exit once the queue is empty and waits for them.
// Every push must happen before close.
func (p *cellPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ready.Broadcast()
	p.workers.Wait()
}
