// Command perfbench is the repository's benchmark. It measures the
// simulator and the sweep service on three workloads and prints every
// metric with its unit; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it and casino-server first:
//
//	bash perfbench/run.sh --workload stall-heavy --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from spans, counters and a CPU profile. README.md lists
// every metric and workload. The benchmark times its own calls into the
// program and reads counters the program already publishes; it adds no
// instrumentation to the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// bench is one benchmark run: its settings and everything it measured.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string // casino-server binary
	refs     *References
	rec      *Recorder

	outStem string // path prefix of the run's result files

	metrics map[string]float64
	props   map[string]float64 // workload-property measurements
	notes   []string
	flags   []string
	// timing holds each timed pass or round's raw wall and calibration
	// seconds, so a record can be re-examined without re-running.
	timing [][2]float64

	mu        sync.Mutex // guards failures and attempted: clients run concurrently
	failures  []string
	attempted int
}

// put records a metric. A ratio with nothing to count (no promoted cell,
// say) reads 0 rather than NaN, and says so.
func (b *bench) put(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.note("%s had no samples; reported as 0", name)
		v = 0
	}
	b.metrics[name] = v
}

func (b *bench) note(format string, args ...interface{}) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// flag records a workload-property violation: the run still counts, but
// its workload no longer stresses what it was chosen for.
func (b *bench) flag(format string, args ...interface{}) {
	b.flags = append(b.flags, fmt.Sprintf(format, args...))
}

// attempt counts one operation.
func (b *bench) attempt() {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
}

// fail records one failed operation, naming it.
func (b *bench) fail(format string, args ...interface{}) {
	b.mu.Lock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// putLatency reports the median and tail of the workload's unit of work.
func (b *bench) putLatency(xs []float64) {
	v, pct, n := tail(xs)
	b.put("latency_p50_s", median(xs))
	b.put("latency_tail_s", v)
	b.put("latency_tail.percentile", pct)
	b.put("latency.samples", float64(n))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measurement time per run, in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
		root     = flag.String("root", ".", "root of the checkout under test")
		server   = flag.String("server-bin", "", "casino-server binary (sweep-service)")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for result and span files")
		record   = flag.Bool("record-references", false, "re-record perfbench/reference.json from the program under test and exit")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *server, *outDir, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, root, server, outDir string, record bool) error {
	if record {
		return recordReferences(filepath.Join(root, "perfbench", "reference.json"))
	}
	refs, err := loadReferences(filepath.Join(root, "perfbench", "reference.json"))
	if err != nil {
		return err
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds * float64(time.Second)),
		trace:    trace == 1,
		server:   server,
		refs:     refs,
		rec:      NewRecorder(),
		outStem:  filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)),
		metrics:  map[string]float64{},
		props:    map[string]float64{},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	env := captureEnv(root)
	if w, ok := batchWorkloads[workload]; ok {
		err = runBatch(b, w)
	} else if workload == wlSweepService {
		err = runService(b)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return fmt.Errorf("peak rss: %w", err)
	}
	if _, ok := b.metrics["peak_rss_mb"]; !ok { // the service reports its server's
		b.put("peak_rss_mb", rss)
	}
	b.put("ok_ratio", 1-float64(len(b.failures))/float64(b.attempted))
	env.LoadAfter = loadAvg()
	return b.report(env)
}

// Result is the line the run ends with.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one reported number with its unit.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines, writes the full result file (and,
// for a traced run, the spans) and prints the result line last.
func (b *bench) report(env Env) error {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := Result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics:   map[string]MetricValue{},
	}
	for _, d := range defs {
		// A metric of a layer this workload does not run reads 0.
		res.Metrics[d.Name] = MetricValue{Value: b.metrics[d.Name], Unit: d.Unit}
	}

	envJSON, _ := json.Marshal(env) // plain struct: cannot fail
	fmt.Printf("workload %s seed %d trace %v\nenv %s\n", b.workload, b.seed, b.trace, envJSON)
	for _, n := range b.notes {
		fmt.Println("note", n)
	}
	for _, f := range b.flags {
		fmt.Println("FLAG", f)
	}
	for _, f := range b.failures {
		fmt.Println("FAIL", f)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %.6g\n", n, b.metrics[n])
	}
	fmt.Printf("metric %-28s %.6g (failed %d of %d operations)\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	full := map[string]interface{}{
		"workload": b.workload, "seed": b.seed, "trace": b.trace, "seconds": b.seconds.Seconds(),
		"env": env, "metrics": b.metrics, "properties": b.props,
		"flags": b.flags, "failures": b.failures, "notes": b.notes, "result": res,
		"timing": b.timing,
	}
	data, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(b.outStem+".json", data, 0o644); err != nil {
		return err
	}
	if b.trace {
		if err := b.rec.WriteFile(b.outStem + ".spans.json"); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
