package dse

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casino/internal/manifest"
	"casino/internal/sim"
)

// Small run window: engine tests care about orchestration, not IPC.
func testGrid(models []string, geoms [][2]int, apps ...string) Grid {
	return Grid{
		Models:     models,
		Workloads:  apps,
		Ops:        1500,
		Warmup:     300,
		Seed:       1,
		Geometries: geoms,
	}
}

func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := j.Snapshot()
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish: %+v", j.ID, j.Snapshot())
	return Status{}
}

func encodeManifest(t *testing.T, m *manifest.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole determinism property: a sweep sharded across workers must
// produce a manifest byte-identical to a strictly serial run of the same
// cells.
func TestShardedMatchesSerial(t *testing.T) {
	g := testGrid([]string{"ino", "casino"}, [][2]int{{2, 1}, {4, 2}}, "mcf")

	e := NewEngine(4, 0)
	defer e.Close()
	job, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != StateDone {
		t.Fatalf("job failed: %+v", st)
	}
	if st.CellsDone != st.CellsTotal || st.CellsTotal != 3 {
		t.Fatalf("progress wrong: %+v", st)
	}
	sharded, ok := job.Manifest()
	if !ok {
		t.Fatal("no manifest on done job")
	}

	serial, _, err := RunGrid(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := manifest.Compare(serial, sharded, manifest.CompareOptions{
		Default: manifest.Tolerance{Rel: 0, Abs: 1e-300},
	}); len(diffs) != 0 {
		t.Errorf("sharded vs serial drift: %v", diffs)
	}
	if !bytes.Equal(encodeManifest(t, serial), encodeManifest(t, sharded)) {
		t.Error("sharded and serial manifests are not byte-identical")
	}
}

// Satellite: two overlapping sweeps back-to-back. The second must report
// cache hits for every shared cell, and its manifest must be bitwise
// equal to the same grid run cold (cache reuse must not perturb results).
func TestOverlappingSweepsHitCacheBitIdentical(t *testing.T) {
	gridA := testGrid([]string{"ino", "casino"}, [][2]int{{2, 1}, {4, 2}}, "mcf")
	gridB := testGrid([]string{"casino", "specino"}, [][2]int{{2, 1}, {4, 2}}, "mcf")
	// Shared cells: casino[ws2,so1] and casino[ws4,so2].

	e := NewEngine(4, 0)
	defer e.Close()
	jobA, err := e.Submit(gridA)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jobA); st.State != StateDone {
		t.Fatalf("sweep A failed: %+v", st)
	}
	jobB, err := e.Submit(gridB)
	if err != nil {
		t.Fatal(err)
	}
	stB := waitJob(t, jobB)
	if stB.State != StateDone {
		t.Fatalf("sweep B failed: %+v", stB)
	}
	if stB.CacheHits != 2 {
		t.Errorf("sweep B cache hits = %d, want 2 (the shared casino cells)", stB.CacheHits)
	}
	warm, _ := jobB.Manifest()

	cold := NewEngine(4, 0)
	defer cold.Close()
	jobCold, err := cold.Submit(gridB)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jobCold); st.State != StateDone || st.CacheHits != 0 {
		t.Fatalf("cold run wrong: %+v", st)
	}
	coldM, _ := jobCold.Manifest()
	if !bytes.Equal(encodeManifest(t, warm), encodeManifest(t, coldM)) {
		t.Error("cache-hit manifest differs from cold-run manifest")
	}
}

// A resubmission of the identical grid must hit the cache for every cell.
func TestResubmitAllHits(t *testing.T) {
	g := testGrid([]string{"ino"}, nil, "mcf", "milc")
	e := NewEngine(2, 0)
	defer e.Close()
	j1, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone || st.CacheHits != 0 {
		t.Fatalf("first run: %+v", st)
	}
	j2, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j2)
	if st.State != StateDone || st.CacheHits != st.CellsTotal {
		t.Errorf("resubmit should hit every cell: %+v", st)
	}
	_, hits, misses := e.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats not tracking: hits=%d misses=%d", hits, misses)
	}
}

// A failing cell fails the job with a named error but never wedges the
// engine; the next job still runs. (Unknown models are rejected at
// Expand, so inject the failure through a cell whose spec is valid but
// whose model the runner rejects at run time via a doctored cell list.)
func TestJobFailureIsIsolated(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()

	g := testGrid([]string{"ino"}, nil, "mcf")
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells[0].Model = "no-such-model" // valid at submit time, fails in Run
	job := &Job{ID: "sweep-doctored", Grid: g.normalized(), Cells: cells, state: StateQueued}
	e.mu.Lock()
	e.jobs[job.ID] = job
	e.mu.Unlock()
	e.queue <- job

	st := waitJob(t, job)
	if st.State != StateFailed || len(st.Errors) == 0 {
		t.Fatalf("doctored job should fail: %+v", st)
	}
	if _, ok := job.Manifest(); ok {
		t.Error("failed job must not publish a manifest")
	}

	ok, err := e.Submit(testGrid([]string{"ino"}, nil, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, ok); st.State != StateDone {
		t.Errorf("engine wedged after failed job: %+v", st)
	}
}

// Close drains: accepted jobs run to completion, later submissions are
// rejected with ErrShuttingDown.
func TestCloseDrains(t *testing.T) {
	e := NewEngine(2, 0)
	job, err := e.Submit(testGrid([]string{"ino"}, nil, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if st := job.Snapshot(); st.State != StateDone {
		t.Errorf("Close did not drain the accepted job: %+v", st)
	}
	if _, err := e.Submit(testGrid([]string{"ino"}, nil, "mcf")); err == nil {
		t.Error("Submit after Close succeeded")
	}
	e.Close() // second Close must be safe
}

func TestSubmitRejectsBadGrid(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	if _, err := e.Submit(Grid{Models: []string{"nope"}, Workloads: []string{"mcf"}}); err == nil {
		t.Error("bad grid accepted")
	}
}

// The result cache's singleflight: concurrent requests for one key run
// the simulation once; the joiner reports a hit. Peek serves only a
// completed entry.
func TestResultCacheSingleflight(t *testing.T) {
	rc := NewResultCache(8)
	started := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		hit bool
		res sim.Result
	}
	first := make(chan out)
	go func() {
		res, hit, _ := rc.Do("k", func() (sim.Result, error) {
			close(started)
			<-release
			return sim.Result{Instructions: 7}, nil
		})
		first <- out{hit, res}
	}()
	<-started
	if _, ok := rc.Peek("k"); ok {
		t.Error("Peek served an in-flight entry")
	}
	second := make(chan out)
	go func() {
		res, hit, _ := rc.Do("k", func() (sim.Result, error) {
			t.Error("second run executed despite in-flight entry")
			return sim.Result{}, nil
		})
		second <- out{hit, res}
	}()
	close(release)
	a, b := <-first, <-second
	if a.hit || a.res.Instructions != 7 {
		t.Errorf("first: %+v", a)
	}
	if !b.hit || b.res.Instructions != 7 {
		t.Errorf("joiner: %+v", b)
	}
	if res, ok := rc.Peek("k"); !ok || res.Instructions != 7 {
		t.Errorf("Peek after completion = %+v, %v", res, ok)
	}
	if _, hits, _ := rc.Stats(); hits != 2 {
		t.Errorf("hits = %d, want 2 (the joiner and the Peek)", hits)
	}
}

// waitFor polls cond until it holds; false if it still fails after a
// minute.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// queuedCells counts the cells of the job with submission number seq
// waiting in the pool queue.
func (e *Engine) queuedCells(seq int) int {
	e.pool.mu.Lock()
	defer e.pool.mu.Unlock()
	n := 0
	for _, t := range e.pool.tasks {
		if t.job == seq {
			n++
		}
	}
	return n
}

// assertMatchesSerial checks a finished job's manifest is byte-identical
// to a serial RunGrid of its grid.
func assertMatchesSerial(t *testing.T, j *Job) {
	t.Helper()
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("job %s failed: %+v", j.ID, st)
	}
	m, _ := j.Manifest()
	serial, _, err := RunGrid(j.Grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeManifest(t, serial), encodeManifest(t, m)) {
		t.Errorf("job %s manifest is not byte-identical to the serial run", j.ID)
	}
}

// TestJobsOverlap: a younger job runs and finishes on a worker the older
// job leaves idle while the older job is still running, and both
// manifests stay byte-identical to serial runs.
func TestJobsOverlap(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	var held atomic.Bool
	// Hold the older job's first promoted cell: the older job stays
	// running while the other worker is free for the younger job.
	e.cellHook = func(j *Job, phase int, _ Cell) {
		if j.seq == 1 && phase == phasePromoted && held.CompareAndSwap(false, true) {
			<-release
		}
	}
	older, err := e.Submit(sampledGrid("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	younger, err := e.Submit(testGrid([]string{"ino", "casino"}, nil, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, younger); st.State != StateDone {
		t.Fatalf("younger job failed: %+v", st)
	}
	if st := older.Snapshot(); st.State != StateRunning {
		t.Errorf("older job %s when the younger finished, want running", st.State)
	}
	once.Do(func() { close(release) })
	assertMatchesSerial(t, older)
	assertMatchesSerial(t, younger)
}

// TestOlderPromotedCellsRunFirst: on one worker, an older job's promoted
// full-fidelity cells run before a younger job's sampled cells that were
// queued earlier. Only the one cell the worker took while the older job
// was promoting may run in between.
func TestOlderPromotedCellsRunFirst(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	type start struct{ seq, phase int }
	var (
		mu      sync.Mutex
		starts  []start
		o       *Job // the older job; set before the younger is submitted
		reached = make(chan struct{})
	)
	ranPromoted := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, s := range starts {
			if s.seq == 1 && s.phase == phasePromoted {
				n++
			}
		}
		return n
	}
	e.cellHook = func(j *Job, phase int, _ Cell) {
		mu.Lock()
		first := len(starts) == 0
		starts = append(starts, start{j.seq, phase})
		mu.Unlock()
		switch {
		case first:
			// Hold the older job's first cell until every sampled cell
			// of the younger job is queued.
			close(reached)
			if !waitFor(func() bool { return e.queuedCells(2) == 3 }) {
				t.Error("younger job's cells never queued")
			}
		case j.seq == 2:
			// A younger cell taken while the older job promotes: let the
			// promotion land in the queue before this cell completes.
			queued := waitFor(func() bool {
				st := o.Snapshot()
				return st.State != StateRunning ||
					st.PromotedCells > 0 && ranPromoted()+e.queuedCells(1) == st.PromotedCells
			})
			if !queued {
				t.Error("older job's promoted cells never queued")
			}
		}
	}
	o, err := e.Submit(sampledGrid("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	y, err := e.Submit(sampledGrid("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, o)
	waitJob(t, y)

	mu.Lock()
	defer mu.Unlock()
	firstP, lastP := -1, -1
	for i, s := range starts {
		if s.seq == 1 && s.phase == phasePromoted {
			if firstP < 0 {
				firstP = i
			}
			lastP = i
		}
	}
	if firstP < 0 {
		t.Fatalf("older job promoted nothing: %v", starts)
	}
	before, after := 0, 0
	for i, s := range starts {
		if s.seq != 2 || s.phase != phaseGrid {
			continue
		}
		switch {
		case i < firstP:
			before++
		case i < lastP:
			t.Errorf("younger sampled cell ran among the older job's promoted cells: %v", starts)
		default:
			after++
		}
	}
	if before > 1 || after == 0 {
		t.Errorf("younger sampled cells: %d before, %d after the older job's promoted cells, want <= 1 and > 0: %v",
			before, after, starts)
	}
	assertMatchesSerial(t, o)
	assertMatchesSerial(t, y)
}

// TestCloseDrainsQueuedJobs: Close finishes every admitted and every
// still-queued job, and each subscriber receives exactly one terminal
// event, as its last.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	e := NewEngine(1, 0) // admits two jobs at a time
	gate := make(chan struct{})
	var held atomic.Bool
	e.cellHook = func(*Job, int, Cell) {
		if held.CompareAndSwap(false, true) {
			<-gate
		}
	}
	var (
		jobs []*Job
		wg   sync.WaitGroup
	)
	for _, app := range []string{"mcf", "milc", "gcc", "lbm"} {
		j, err := e.Submit(testGrid([]string{"ino"}, nil, app))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		for k := 0; k < 2; k++ {
			ch, cancel, ok := e.Subscribe(j.ID)
			if !ok {
				t.Fatalf("subscribe %s failed", j.ID)
			}
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				defer cancel()
				terminals, n, lastTerminal := 0, 0, false
				for p := range ch {
					n++
					lastTerminal = p.Terminal()
					if lastTerminal {
						terminals++
					}
				}
				if terminals != 1 || !lastTerminal {
					t.Errorf("subscriber of %s: %d events, %d terminal, last terminal %v", id, n, terminals, lastTerminal)
				}
			}(j.ID)
		}
	}
	if !waitFor(func() bool { return e.JobsRunning() == 2 && e.QueueDepth() == 2 }) {
		t.Fatalf("want two jobs admitted and two queued: %d running, %d queued", e.JobsRunning(), e.QueueDepth())
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	waitFor(e.Draining)
	if _, err := e.Submit(testGrid([]string{"ino"}, nil, "mcf")); err == nil {
		t.Error("Submit during drain succeeded")
	}
	close(gate)
	<-closed
	wg.Wait()
	for _, j := range jobs {
		if st := j.Snapshot(); st.State != StateDone {
			t.Errorf("job %s %s after Close", j.ID, st.State)
		}
	}
	if e.JobsRunning() != 0 || e.QueueDepth() != 0 || e.CellsQueued() != 0 {
		t.Errorf("after Close: %d running, %d queued jobs, %d queued cells",
			e.JobsRunning(), e.QueueDepth(), e.CellsQueued())
	}
}

// TestEvictionSparesRunningJobsAndCache: once more finished jobs exist
// than the engine retains, the oldest finished one answers 404, while a
// running job and the result cache are untouched.
func TestEvictionSparesRunningJobsAndCache(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()
	e.retain = 1
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	e.cellHook = func(j *Job, _ int, _ Cell) {
		if j.seq == 2 {
			<-release
		}
	}
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	gridA := testGrid([]string{"ino"}, nil, "mcf")
	a, err := e.Submit(gridA)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, a)
	running, err := e.Submit(testGrid([]string{"casino"}, nil, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Submit(testGrid([]string{"ino"}, nil, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c)
	if !waitFor(func() bool { _, ok := e.Job(a.ID); return !ok }) {
		t.Fatalf("job %s still retained after a newer job finished", a.ID)
	}
	for _, path := range []string{"", "/progress", "/events", "/manifest"} {
		if code := get("/v1/sweeps/" + a.ID + path); code != http.StatusNotFound {
			t.Errorf("GET evicted %s%s = %d, want 404", a.ID, path, code)
		}
	}
	if code := get("/v1/sweeps/" + c.ID); code != http.StatusOK {
		t.Errorf("GET newest finished job = %d, want 200", code)
	}
	if st := running.Snapshot(); st.State != StateRunning {
		t.Errorf("running job %s during eviction, want running", st.State)
	}
	if _, ok := e.Job(running.ID); !ok {
		t.Error("running job was evicted")
	}
	if entries, _, _ := e.CacheStats(); entries != 2 {
		t.Errorf("result cache holds %d entries, want 2 (the finished jobs' cells)", entries)
	}

	once.Do(func() { close(release) })
	assertMatchesSerial(t, running)
	again, err := e.Submit(gridA)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, again); st.CacheHits != st.CellsTotal {
		t.Errorf("resubmitted evicted grid: %+v, want every cell a cache hit", st)
	}
}
