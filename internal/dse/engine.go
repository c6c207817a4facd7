package dse

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"casino/internal/manifest"
	"casino/internal/sim"
	"casino/internal/telemetry"
)

// Overload errors: the submission was well-formed but the engine cannot
// accept it right now. The HTTP layer maps these to 503.
var (
	ErrShuttingDown = errors.New("engine is shutting down")
	ErrQueueFull    = errors.New("job queue full")
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one accepted sweep: its expanded cells, live progress counters,
// and — once complete — the merged manifest and Pareto points.
type Job struct {
	ID    string
	Grid  Grid
	Cells []Cell

	seq     int // submission number: the job's pool priority (lower first)
	workers int // engine pool width, for the ETA forecast

	mu       sync.Mutex
	state    string
	done     int
	total    int // cells across phases; 0 until running (then >= len(Cells))
	sampled  int // cells executed at sampled fidelity (phase one)
	promoted int // sampled cells promoted to a full-fidelity re-run
	hits     int
	errs     []string
	manifest *manifest.Manifest
	points   []Point

	// Progress/telemetry state (wall-clock; never merged into manifests).
	started  time.Time
	finished time.Time
	ewmaMs   float64

	// SSE subscriptions (see progress.go).
	subs     map[int]chan Progress
	subSeq   int
	terminal bool
	final    Progress
}

// Status is a point-in-time snapshot of a job, shaped for the HTTP API.
// On a sampled-first sweep CellsTotal covers both phases; it grows from
// the expansion count to expansion+promoted once the promotion set is
// known (mid-run), mirroring how the work itself is discovered.
type Status struct {
	ID            string   `json:"id"`
	State         string   `json:"state"`
	CellsTotal    int      `json:"cells_total"`
	CellsDone     int      `json:"cells_done"`
	SampledCells  int      `json:"sampled_cells,omitempty"`
	PromotedCells int      `json:"promoted_cells,omitempty"`
	CacheHits     int      `json:"cache_hits"`
	Errors        []string `json:"errors,omitempty"`
}

// totalLocked is the job's cross-phase cell count; the caller holds j.mu.
func (j *Job) totalLocked() int {
	if j.total > 0 {
		return j.total
	}
	return len(j.Cells)
}

// statusLocked assembles the snapshot; the caller holds j.mu.
func (j *Job) statusLocked() Status {
	return Status{
		ID:            j.ID,
		State:         j.state,
		CellsTotal:    j.totalLocked(),
		CellsDone:     j.done,
		SampledCells:  j.sampled,
		PromotedCells: j.promoted,
		CacheHits:     j.hits,
		Errors:        append([]string(nil), j.errs...),
	}
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Manifest returns the merged sweep manifest, or false while the job has
// not completed successfully.
func (j *Job) Manifest() (*manifest.Manifest, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest, j.state == StateDone && j.manifest != nil
}

// Points returns every completed design point (for the Pareto reducer),
// or false while the job has not completed successfully.
func (j *Job) Points() ([]Point, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return append([]Point(nil), j.points...), true
}

// engineMetrics holds the engine's service-level instruments: lock-free
// atomics bumped on the job/cell paths, snapshot by the telemetry
// registry at scrape time (NewTelemetry). The simulation counters
// (cycles, instructions, eventq totals) aggregate only cells that
// actually simulated — cache hits represent work avoided, not done.
type engineMetrics struct {
	sweepsSubmitted atomic.Uint64
	sweepsDone      atomic.Uint64
	sweepsFailed    atomic.Uint64
	cellsDone       atomic.Uint64
	sampledCells    atomic.Uint64
	promotedCells   atomic.Uint64
	jobsRunning     atomic.Int64

	simCycles       atomic.Uint64
	simInstructions atomic.Uint64
	evqWakeups      atomic.Uint64
	evqCoalesced    atomic.Uint64
	ffSkipped       atomic.Uint64

	// cellMs distributes per-cell wall time (cache hits included) for
	// the /metrics p50/p90/p99 summary. Bucketed to 1ms up to 5 minutes.
	cellMs *telemetry.Summary
}

// addCellCounters folds one freshly simulated cell's whole-run counters
// into the service totals.
func (m *engineMetrics) addCellCounters(res sim.Result) {
	m.simCycles.Add(res.Cycles)
	m.simInstructions.Add(res.Instructions)
	m.evqWakeups.Add(uint64(res.Extra["evq.wakeups"]))
	m.evqCoalesced.Add(uint64(res.Extra["evq.coalesced"]))
	m.ffSkipped.Add(uint64(res.Extra["ff.skipped_cycles"]))
}

// Engine is the sweep executor. One persistent pool of `workers`
// goroutines (runtime.NumCPU() by default) drains a single priority queue
// of cell tasks shared by every running job. Tasks leave the queue oldest
// job first, then by phase, then by cell index, so a job running
// alongside an older one delays it by at most the cells the workers had
// already started.
//
// Submitted jobs wait in a FIFO queue until admitted; at most twice the
// pool width run at once. Each admitted job runs its sweep (runSweep) in
// its own goroutine: it resolves traces, queues its grid-phase cells,
// and, on a sampled-first grid, queues the promoted full-fidelity cells
// once the grid phase is done. Promoted cells keep the job's priority, so
// they run ahead of any younger job's cells. Trace resolution, promotion
// and the manifest merge run off the pool while other jobs' cells keep
// the workers busy. Every cell goes through the fingerprint-keyed result
// cache; a cell whose result is already cached completes in its job's
// goroutine without waiting for a worker. Results, manifests and
// frontiers are byte-identical to a serial RunGrid of the same grid.
//
// Finished jobs stay queryable until retainFinished newer jobs have
// finished after them; an evicted job is unknown to Job and Subscribe.
type Engine struct {
	workers int
	cache   *ResultCache
	pool    *cellPool
	retain  int // finished jobs kept in jobs (retainFinished)

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // ids of retained finished jobs, oldest first
	seq      int
	closed   bool

	queue   chan *Job     // submitted, not yet admitted
	admit   chan struct{} // one slot per running job
	drained chan struct{}
	started atomic.Bool // dispatcher goroutine is live: the readiness gate

	// cellHook, when set (tests only), is called on the worker before a
	// cell runs.
	cellHook func(job *Job, phase int, c Cell)

	met engineMetrics
}

// retainFinished is how many finished jobs the engine keeps queryable.
// Older ones are evicted, bounding memory on a long-lived server.
const retainFinished = 256

// NewEngine starts an engine with the given pool width (<= 0 means
// runtime.NumCPU()) and result-cache capacity (<= 0 means
// DefaultResultCacheSize). Callers own the engine's lifecycle and must
// Close it to drain.
func NewEngine(workers, cacheSize int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Engine{
		workers: workers,
		cache:   NewResultCache(cacheSize),
		pool:    newCellPool(workers),
		retain:  retainFinished,
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, 256), // beyond this, Submit answers ErrQueueFull
		// Two running jobs per worker: one feeding the worker cells while
		// the other resolves traces, promotes or merges off the pool.
		admit:   make(chan struct{}, 2*workers),
		drained: make(chan struct{}),
	}
	e.met.cellMs = telemetry.NewSummary(5 * 60 * 1000)
	go e.dispatch()
	return e
}

// dispatch admits queued jobs in submission order as running slots free
// up. Once Close closes the queue it waits for every admitted job, then
// stops the pool.
func (e *Engine) dispatch() {
	defer close(e.drained)
	e.started.Store(true)
	var running sync.WaitGroup
	for {
		e.admit <- struct{}{}
		job, ok := <-e.queue
		if !ok {
			break
		}
		e.met.jobsRunning.Add(1)
		running.Add(1)
		go func() {
			defer running.Done()
			e.runJob(job)
			e.met.jobsRunning.Add(-1)
			<-e.admit
		}()
	}
	running.Wait()
	e.pool.close()
}

// Submit validates and expands the grid, enqueues the job, and returns it
// immediately. The returned job's snapshots track execution.
func (e *Engine) Submit(g Grid) (*Job, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("dse: %w", ErrShuttingDown)
	}
	e.seq++
	job := &Job{
		ID:      fmt.Sprintf("sweep-%04d", e.seq),
		Grid:    g.normalized(),
		Cells:   cells,
		seq:     e.seq,
		workers: e.workers,
		state:   StateQueued,
	}
	e.jobs[job.ID] = job
	select {
	case e.queue <- job:
	default:
		delete(e.jobs, job.ID)
		e.mu.Unlock()
		return nil, fmt.Errorf("dse: %w (%d pending)", ErrQueueFull, cap(e.queue))
	}
	e.mu.Unlock()
	e.met.sweepsSubmitted.Add(1)
	return job, nil
}

// Job returns the job with the given id; false for an unknown or evicted
// id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns every retained job sorted by id (submission order — ids
// are zero-padded sequence numbers). Backs GET /v1/sweeps.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	out := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Workers returns the pool width the engine shards cells across.
func (e *Engine) Workers() int { return e.workers }

// QueueDepth returns the number of jobs submitted but not yet admitted.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// JobsRunning returns the number of admitted jobs that have not finished.
func (e *Engine) JobsRunning() int { return int(e.met.jobsRunning.Load()) }

// CellsQueued returns the number of cells waiting for a pool worker.
func (e *Engine) CellsQueued() int { return int(e.pool.queued.Load()) }

// WorkersBusy returns how many pool workers are executing a cell right now.
func (e *Engine) WorkersBusy() int { return int(e.pool.busy.Load()) }

// Ready reports whether the engine is accepting and executing sweeps:
// the dispatcher is up and Close has not begun. Backs GET /readyz —
// distinct from liveness, which is true the moment the process serves
// HTTP.
func (e *Engine) Ready() bool {
	return e.started.Load() && !e.Draining()
}

// Draining reports whether Close has been called.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// CacheStats exposes the result cache's counters.
func (e *Engine) CacheStats() (entries int, hits, misses uint64) {
	return e.cache.Stats()
}

// Close drains the engine: no new submissions are accepted, every already
// accepted job — running or still queued — runs to completion (in-flight
// cells are never abandoned, and every SSE subscriber receives its job's
// terminal event), and Close returns once the pool has stopped. Safe to
// call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	<-e.drained
}

// runJob runs one admitted job's sweep on the pool and publishes its
// terminal state.
func (e *Engine) runJob(job *Job) {
	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.total = len(job.Cells)
	job.publishLocked(job.started)
	job.mu.Unlock()

	m, points, _, err := runSweep(job.Grid, job.Cells, func(phase int, cells []Cell, traceFPs map[string]uint64) ([]sim.Result, error) {
		return e.runPhase(job, phase, cells, traceFPs)
	})

	job.mu.Lock()
	job.finished = time.Now()
	if err != nil {
		e.met.sweepsFailed.Add(1)
		job.state = StateFailed
		job.errs = append(job.errs, err.Error())
	} else {
		e.met.sweepsDone.Add(1)
		job.state = StateDone
		job.manifest = m
		job.points = points
	}
	job.publishLocked(job.finished)
	job.mu.Unlock()
	e.retire(job)
}

// retire records a terminal job (its terminal event already published)
// and evicts the oldest finished jobs beyond the retention bound.
func (e *Engine) retire(job *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finished = append(e.finished, job.ID)
	for len(e.finished) > e.retain {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
}

// runPhase queues one phase's cells on the pool at the job's priority,
// waits for all of them and returns their results in cell order. Every
// cell runs through the result cache; one whose result is already there
// completes at once without taking a worker.
func (e *Engine) runPhase(job *Job, phase int, cells []Cell, traceFPs map[string]uint64) ([]sim.Result, error) {
	if phase == phasePromoted {
		e.met.sampledCells.Add(uint64(len(job.Cells)))
		e.met.promotedCells.Add(uint64(len(cells)))
		job.mu.Lock()
		job.sampled = len(job.Cells)
		job.promoted = len(cells)
		job.total = len(job.Cells) + len(cells)
		job.publishLocked(time.Now())
		job.mu.Unlock()
	}
	simCells, err := simCellsOf(cells)
	if err != nil {
		return nil, err
	}
	out := make([]sim.CellResult, len(cells))
	var (
		wg    sync.WaitGroup
		tasks []cellTask
	)
	for i, c := range cells {
		key := c.CacheKey(traceFPs[c.Workload])
		// A finished result needs no worker: serve it here, so a cached
		// cell never waits behind older jobs' cells.
		if res, ok := e.cache.Peek(key); ok {
			out[i] = sim.CellResult{Cell: simCells[i], Result: res}
			e.cellDone(job, time.Now(), true, out[i])
			continue
		}
		wg.Add(1)
		tasks = append(tasks, cellTask{job: job.seq, phase: phase, index: i, run: func() {
			defer wg.Done()
			out[i] = e.runCell(job, phase, c, simCells[i], key)
		}})
	}
	e.pool.push(tasks...)
	wg.Wait()
	return resultsOf(out)
}

// runCell executes one cell on a pool worker through the result cache.
func (e *Engine) runCell(job *Job, phase int, c Cell, sc sim.Cell, key string) sim.CellResult {
	if e.cellHook != nil {
		e.cellHook(job, phase, c)
	}
	start := time.Now()
	hit := false
	r := sim.RunCell(sc, func(sc sim.Cell) (sim.Result, error) {
		res, h, err := e.cache.Do(key, func() (sim.Result, error) {
			return sim.Run(sc.Spec)
		})
		hit = h
		return res, err
	})
	e.cellDone(job, start, hit, r)
	return r
}

// cellDone folds one completed cell, started at start, into the job's
// progress and the service counters.
func (e *Engine) cellDone(job *Job, start time.Time, hit bool, r sim.CellResult) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	e.met.cellMs.Observe(ms)
	if !hit && r.Err == nil {
		e.met.addCellCounters(r.Result)
	}
	e.met.cellsDone.Add(1)
	job.mu.Lock()
	if hit {
		job.hits++
	}
	job.done++
	job.observeCellLocked(ms)
	job.publishLocked(time.Now())
	job.mu.Unlock()
}
