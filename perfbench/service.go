package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"casino/internal/dse"
	"casino/internal/manifest"
	"casino/internal/sim"
)

// serviceSetups is how many times a sweep-service run boots a server;
// setup_s is the median, and the last server carries the traffic.
const serviceSetups = 3

// server is a casino-server child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit status once
}

// startServer boots casino-server on a free loopback port with its pprof
// endpoint mounted and waits until /readyz answers 200.
func startServer(bin, logPath string) (*server, error) {
	if bin == "" {
		return nil, errors.New("sweep-service needs -server-bin")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-pprof", "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() {
		s.done <- cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("casino-server exited before ready: %v (log %s)", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop() //nolint:errcheck // the readiness timeout is the error to report
			return nil, fmt.Errorf("casino-server not ready after 30s (log %s)", logPath)
		}
	}
}

// stop asks the server to drain and exit, and waits until it has.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // reported below
		<-s.done
		return errors.New("casino-server did not drain within 30s; killed")
	}
}

// client is one closed-loop user of the service.
type client struct {
	b       *bench
	base    string
	http    *http.Client
	id      int
	seed    int64
	steps   []step
	grids   [][]dse.Grid
	pos     int  // next step of the walk
	wrapped bool // the walk ran out and started over

	mape map[string]float64 // full-fidelity cell key -> |sampled-full|/full IPC
}

// sweepStats is one submission as the client saw it.
type sweepStats struct {
	latency  time.Duration // submit to terminal status
	queue    float64       // submit to first cell done, s
	submit   float64       // POST round trip, ms
	manifest float64       // ms
	pareto   float64       // ms
	bytes    int           // manifest body
	hit      bool          // every cell was a result-cache hit
	service  float64       // hit sweeps: submit round trip plus the job's run time, ms
}

func runService(b *bench) error {
	gridSeed := svcGridSeed(b.seed)
	var (
		srv    *server
		setups []float64
	)
	for i := 0; i < serviceSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		s, err := startServer(b.server, b.outStem+".server.log")
		if err != nil {
			return err
		}
		srv = s
		if err := prime(srv.base, gridSeed); err != nil {
			srv.stop() //nolint:errcheck // the priming error is the one to report
			return err
		}
		setups = append(setups, refSeconds(time.Since(start), calibrate()))
	}
	b.put("setup_s", median(setups))
	err := b.serviceTraffic(srv, gridSeed)
	if rss, rerr := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)); rerr == nil {
		b.put("peak_rss_mb", rss)
	} else if err == nil {
		err = fmt.Errorf("server peak rss: %w", rerr)
	}
	if serr := srv.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	if err != nil {
		return err
	}

	// The trace-generation layer, timed in process on the traffic's traces.
	sim.ResetSharedTraces()
	var gens []float64
	for _, app := range svcApps {
		_, end := b.rec.Begin("sim.SharedTrace/"+app, "generate", 0)
		if _, err := sim.SharedTrace(app, svcOps+svcWarmup, gridSeed); err != nil {
			return err
		}
		gens = append(gens, end().Dur().Seconds()*1e3)
	}
	b.put("workload.generate_ms", median(gens))
	return nil
}

// prime makes the server generate every trace the traffic uses, through
// one full-fidelity sweep of a model no traffic grid names.
func prime(base string, gridSeed int64) error {
	g := dse.Grid{Models: []string{primeModel}, Workloads: svcApps, Ops: svcOps, Warmup: svcWarmup, Seed: gridSeed}
	c := &http.Client{Timeout: 2 * time.Minute}
	id, err := submit(c, base, g)
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	final, _, err := await(c, base, id, time.Now())
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	if final.State != dse.StateDone {
		return fmt.Errorf("prime: sweep %s ended %s: %v", id, final.State, final.Errors)
	}
	return nil
}

// svcRoundSteps is how many sweeps each client runs per traffic round.
const svcRoundSteps = 16

// round is one traffic round: every client runs svcRoundSteps sweeps of its
// walk, then, with the server idle, the calibration kernel runs.
type round struct {
	wall, cal   time.Duration
	cells, uops float64 // /metrics deltas over the round
	sweeps      []sweepStats
}

// serviceTraffic runs the closed loop: svcClients clients, each walking its
// seeded sequence of sampled-first grids, in rounds until the time is up. A
// traced run profiles the server over the second half of the time.
func (b *bench) serviceTraffic(srv *server, gridSeed int64) error {
	fams := catalogue()
	clients := make([]*client, svcClients)
	for i := range clients {
		clients[i] = &client{
			b: b, base: srv.base, id: i, seed: gridSeed, grids: fams,
			http:  &http.Client{Timeout: 2 * time.Minute},
			steps: walk(b.seed, i),
			mape:  map[string]float64{},
		}
	}
	m0, err := scrape(srv.base)
	if err != nil {
		return err
	}
	start := time.Now()
	var (
		prev          = m0
		plain, rounds []round
		profile       []byte
		profErr       error
		profDone      chan struct{}
	)
	defer func() {
		if profDone != nil {
			<-profDone // the profile request ends within its seconds
		}
	}()
	for len(rounds) == 0 || time.Since(start) < b.seconds {
		if b.trace && profDone == nil && time.Since(start) >= b.seconds/2 {
			// Second half: profile the server for the rest of the run.
			plain, rounds = rounds, nil
			secs := max(int(math.Round((b.seconds - time.Since(start)).Seconds())), 1)
			profDone = make(chan struct{})
			go func() {
				defer close(profDone)
				profile, profErr = fetch(&http.Client{Timeout: 2 * time.Minute},
					fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", srv.base, secs))
			}()
		}
		r, next, err := runRound(srv.base, clients, prev)
		if err != nil {
			return err
		}
		prev = next
		rounds = append(rounds, r)
	}
	if profDone != nil {
		<-profDone
		if profErr != nil {
			return fmt.Errorf("server profile: %w", profErr)
		}
	}
	m2 := prev

	var sweeps []sweepStats
	for _, r := range append(append([]round(nil), plain...), rounds...) {
		sweeps = append(sweeps, r.sweeps...)
	}
	mape := map[string]float64{}
	for _, c := range clients {
		for k, v := range c.mape {
			mape[k] = v
		}
		if c.wrapped {
			b.flag("client %d ran through its whole walk; later sweeps were all cache hits", c.id)
		}
	}
	if len(sweeps) == 0 {
		return errors.New("no sweep completed")
	}
	delta := func(name string) float64 { return m2[name] - m0[name] }

	var submitMs, manMs, parMs, bytesN, queue, hitMs []float64
	hits := 0
	for _, s := range sweeps {
		queue = append(queue, s.queue)
		submitMs = append(submitMs, s.submit)
		manMs = append(manMs, s.manifest)
		parMs = append(parMs, s.pareto)
		bytesN = append(bytesN, float64(s.bytes))
		if s.hit {
			hits++
			hitMs = append(hitMs, s.service)
		}
	}
	if !b.trace {
		var lat, cps, mips []float64
		for _, r := range rounds {
			for _, s := range r.sweeps {
				lat = append(lat, refSeconds(s.latency, r.cal))
			}
			cps = append(cps, r.cells/refSeconds(r.wall, r.cal))
			b.timing = append(b.timing, [2]float64{r.wall.Seconds(), r.cal.Seconds()})
			mips = append(mips, r.uops/refSeconds(r.wall, r.cal)/1e6)
		}
		b.putLatency(lat)
		b.put("sim_mips", median(mips))
		b.put("cells_per_s", median(cps))
		b.props["raw_sim_mips"] = delta("casino_sim_instructions_total") / time.Since(start).Seconds() / 1e6
	} else {
		var lat []float64
		for _, s := range sweeps {
			lat = append(lat, s.latency.Seconds())
		}
		b.putLatency(lat)
		b.put("trace.overhead", 1-median(roundMIPS(rounds))/median(roundMIPS(plain)))
	}
	b.put("http.submit_ms", median(submitMs))
	b.put("http.manifest_ms", median(manMs))
	b.put("http.pareto_ms", median(parMs))
	b.put("manifest.bytes", median(bytesN))
	b.put("dse.queue_wait_s", median(queue))
	b.put("dse.cell_ms_p50", m2[`casino_cell_wall_time_ms{quantile="0.5"}`])
	b.put("dse.cell_ms_p99", m2[`casino_cell_wall_time_ms{quantile="0.99"}`])
	hitsN, missN := delta("casino_result_cache_hits_total"), delta("casino_result_cache_misses_total")
	b.put("dse.cache_hit_ratio", hitsN/(hitsN+missN))
	b.put("dse.promote_ratio", delta("casino_promoted_cells_total")/delta("casino_sampled_cells_total"))
	b.put("hit_sweep_p50_ms", median(hitMs))
	var errSum float64
	for _, e := range mape {
		errSum += e
	}
	if len(mape) > 0 {
		b.put("sampled_ipc_mape", errSum/float64(len(mape)))
	}

	hitShare := float64(hits) / float64(len(sweeps))
	b.props["hit_sweep_share"] = hitShare
	b.props["dse.cache_hit_ratio"] = hitsN / (hitsN + missN)
	b.note("%d sweeps in %d rounds (%d fully cached, share %.2f), %d promoted cells in the accuracy mean",
		len(sweeps), len(plain)+len(rounds), hits, hitShare, len(mape))
	if hitShare < 0.15 || hitShare > 0.6 {
		b.flag("sweep-service: fully cached share %.2f left the class range [0.15, 0.60]", hitShare)
	}
	if b.trace {
		return b.putCPU(profile)
	}
	return nil
}

// roundMIPS returns each round's simulated throughput in reference seconds.
func roundMIPS(rounds []round) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.uops / refSeconds(r.wall, r.cal) / 1e6
	}
	return out
}

// runRound runs one round of every client concurrently, then scrapes the
// server's counters and runs the calibration kernel while it idles.
func runRound(base string, clients []*client, prev map[string]float64) (round, map[string]float64, error) {
	start := time.Now()
	per := make([][]sweepStats, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := 0; k < svcRoundSteps; k++ {
				if s, ok := c.next(); ok {
					per[i] = append(per[i], s)
				}
			}
		}(i, c)
	}
	wg.Wait()
	r := round{wall: time.Since(start)}
	m, err := scrape(base)
	if err != nil {
		return round{}, nil, err
	}
	r.cal = calibrate()
	r.cells = m["casino_cells_completed_total"] - prev["casino_cells_completed_total"]
	r.uops = m["casino_sim_instructions_total"] - prev["casino_sim_instructions_total"]
	for _, s := range per {
		r.sweeps = append(r.sweeps, s...)
	}
	return r, m, nil
}

// next runs the client's next step as one operation: it fails when any
// request gets a non-2xx response, the job fails, or the Pareto frontier
// differs from the reference.
func (c *client) next() (sweepStats, bool) {
	i := c.pos
	c.pos++
	if i > 0 && i%len(c.steps) == 0 {
		c.wrapped = true
	}
	st := c.steps[i%len(c.steps)]
	g := c.grids[st.Family][st.Variant]
	g.Seed = c.seed
	run := fmt.Sprintf("c%d-%d", c.id, i)
	c.b.attempt()
	s, err := c.runSweep(st, g, run)
	if err != nil {
		c.b.fail("sweep %s grid %s: %v", run, st.gridID(), err)
		return sweepStats{}, false
	}
	return s, true
}

// runSweep submits the grid, follows it to its terminal status, fetches its
// manifest and Pareto frontier, checks the frontier against the reference
// and folds the manifest's sampled and full IPCs into the accuracy mean.
func (c *client) runSweep(st step, g dse.Grid, run string) (sweepStats, error) {
	rec := c.b.rec
	root, endSweep := rec.Begin("sweep", run, 0)
	defer endSweep()
	t0 := time.Now()

	_, endSubmit := rec.Begin("http.submit", run, root)
	id, err := submit(c.http, c.base, g)
	submitSpan := endSubmit()
	if err != nil {
		return sweepStats{}, fmt.Errorf("submit: %w", err)
	}
	_, endWait := rec.Begin("sweep.wait", run, root)
	final, firstCell, err := await(c.http, c.base, id, t0)
	endWait()
	latency := time.Since(t0)
	if err != nil {
		return sweepStats{}, fmt.Errorf("%s: %w", id, err)
	}
	if final.State != dse.StateDone {
		return sweepStats{}, fmt.Errorf("%s ended %s: %v", id, final.State, final.Errors)
	}

	_, endMan := rec.Begin("http.manifest", run, root)
	body, err := fetch(c.http, c.base+"/v1/sweeps/"+id+"/manifest")
	manSpan := endMan()
	if err != nil {
		return sweepStats{}, fmt.Errorf("%s manifest: %w", id, err)
	}
	_, endPar := rec.Begin("http.pareto", run, root)
	pbody, err := fetch(c.http, c.base+"/v1/sweeps/"+id+"/pareto")
	parSpan := endPar()
	if err != nil {
		return sweepStats{}, fmt.Errorf("%s pareto: %w", id, err)
	}

	var pr dse.ParetoResponse
	if err := json.Unmarshal(pbody, &pr); err != nil {
		return sweepStats{}, fmt.Errorf("%s pareto: %w", id, err)
	}
	key := frontierKey(st.gridID(), g.Seed)
	want, ok := c.b.refs.Frontiers[key]
	if !ok {
		return sweepStats{}, fmt.Errorf("%s: no reference frontier %s", id, key)
	}
	if got := frontierOf(pr.Workloads); frontierHash(got) != want {
		return sweepStats{}, fmt.Errorf("%s: Pareto frontier differs from the reference: %v", id, got)
	}
	m, err := manifest.Decode(bytes.NewReader(body))
	if err != nil {
		return sweepStats{}, fmt.Errorf("%s manifest: %w", id, err)
	}
	for k, full := range m.Metrics {
		cell, ok := strings.CutPrefix(k, "cell.")
		if !ok || !strings.HasSuffix(cell, ".ipc") || strings.Contains(cell, "@sampled") {
			continue
		}
		cell = strings.TrimSuffix(cell, ".ipc")
		if sampled, ok := m.Metrics["cell."+cell+"@sampled.ipc"]; ok && full > 0 {
			c.mape[cell] = math.Abs(sampled-full) / full
		}
	}

	s := sweepStats{
		latency:  latency,
		queue:    firstCell.Seconds(),
		submit:   submitSpan.Dur().Seconds() * 1e3,
		manifest: manSpan.Dur().Seconds() * 1e3,
		pareto:   parSpan.Dur().Seconds() * 1e3,
		bytes:    len(body),
		hit:      final.CacheHits == final.CellsTotal,
	}
	s.service = s.submit + final.ElapsedSeconds*1e3
	return s, nil
}

// submit posts a grid and returns the sweep id.
func submit(c *http.Client, base string, g dse.Grid) (string, error) {
	body, err := json.Marshal(g)
	if err != nil {
		return "", err
	}
	resp, err := c.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var sr dse.SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", err
	}
	return sr.ID, nil
}

// await follows the sweep's server-sent progress events to its terminal
// snapshot. It also returns how long after t0 the first completed cell was
// reported.
func await(c *http.Client, base, id string, t0 time.Time) (dse.Progress, time.Duration, error) {
	resp, err := c.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return dse.Progress{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return dse.Progress{}, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var firstCell time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var p dse.Progress
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			return dse.Progress{}, 0, fmt.Errorf("events: %w", err)
		}
		if firstCell == 0 && p.CellsDone > 0 {
			firstCell = time.Since(t0)
		}
		if p.Terminal() {
			return p, firstCell, nil
		}
	}
	if err := sc.Err(); err != nil {
		return dse.Progress{}, 0, fmt.Errorf("events: %w", err)
	}
	return dse.Progress{}, 0, errors.New("events: stream ended before the sweep did")
}

// fetch GETs a URL and returns the body of a 2xx response.
func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape reads the server's /metrics exposition into series -> value.
func scrape(base string) (map[string]float64, error) {
	data, err := fetch(&http.Client{Timeout: 30 * time.Second}, base+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}
