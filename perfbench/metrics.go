package main

// MetricDef names one reported metric. The two tables below are the
// benchmark's whole metric surface; BENCHMARK.json lists the same names,
// units and directions (a test keeps them in step).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd metrics are reported by an untraced run of every workload.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"sim_mips", "Mop/s", "higher"},
	{"cells_per_s", "1/s", "higher"},
	{"latency_p50_s", "s", "lower"},
	{"latency_tail_s", "s", "lower"},
}

// layers are the CPU-profile buckets of the traced run (see cpuprof.go).
var layers = []string{
	"workload", "frontend", "scheduler", "lsu", "mem",
	"accounting", "driver", "dse", "http", "runtime",
}

// modelFamilies groups the matrix models by the package that implements
// them: lsc and freeway are both slice cores, casino is the core package.
var modelFamilies = []string{"ino", "slice", "core", "ooo", "specino"}

// perLayer metrics are reported by a traced run of every workload. A
// metric of a layer the workload does not run reads 0 (see README.md).
var perLayer = func() []MetricDef {
	defs := []MetricDef{{"workload.generate_ms", "ms", "lower"}}
	for _, f := range modelFamilies {
		defs = append(defs,
			MetricDef{"model." + f + ".busy_s", "s", "lower"},
			MetricDef{"model." + f + ".kips", "kop/s", "higher"})
	}
	defs = append(defs,
		MetricDef{"driver.stepped_cycles", "count", "lower"},
		MetricDef{"ff.coverage", "ratio", "higher"},
		MetricDef{"evq.wakeups_per_kcycle", "count", "lower"})
	for _, l := range layers {
		defs = append(defs, MetricDef{"cpu." + l, "ratio", "lower"})
	}
	return append(defs,
		MetricDef{"http.submit_ms", "ms", "lower"},
		MetricDef{"http.manifest_ms", "ms", "lower"},
		MetricDef{"http.pareto_ms", "ms", "lower"},
		MetricDef{"manifest.bytes", "bytes", "lower"},
		MetricDef{"dse.queue_wait_s", "s", "lower"},
		MetricDef{"dse.cell_ms_p50", "ms", "lower"},
		MetricDef{"dse.cell_ms_p99", "ms", "lower"},
		MetricDef{"dse.cache_hit_ratio", "ratio", "higher"},
		MetricDef{"dse.promote_ratio", "ratio", "lower"},
		MetricDef{"hit_sweep_p50_ms", "ms", "lower"},
		MetricDef{"sampled_ipc_mape", "ratio", "lower"},
		MetricDef{"latency_tail.percentile", "%", "higher"},
		MetricDef{"latency.samples", "count", "higher"},
		MetricDef{"trace.overhead", "ratio", "lower"},
	)
}()
